"""Distributed-MAC overhead limits, a TDMA check simulator, and token identifiers.

A reservation MAC spends at least ``v * M[tau]`` of control time per
packet of mean duration ``M[tau]``.  The per-packet overhead fraction is
bounded below by

    v_inf = (2 + H(p)) / L      (geometric packet lengths, "mm1")
    v_inf = 1.854 / L           (constant packet lengths,  "md1")

with L = B * M[tau] the mean packet length in bits and H(p) the per-bit
entropy rate of the geometric length distribution.  The reachable
throughput supremum is C_sup = 1 / (1 + v_inf).

``simulate_tdma`` cross-checks the limits with a discrete-event
single-server queue: Poisson arrivals, service = packet duration plus
``v * M[tau]`` of overhead, measured over an exact busy/idle partition of
the time axis between two packet completions.  Completion times come from
the max-plus form of Lindley's recursion, computed over whole arrays.

``allocate_identifiers`` hands out sets of m-sequence window identifiers
proportionally to per-station activity: largest-remainder apportionment
(every station keeps at least one identifier) placed in contiguous
blocks by recursive near-equal-weight splitting.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from mchan.msequence import MSequence, generate_msequence

__all__ = [
    "MD1_OVERHEAD_CONSTANT",
    "MacLimits",
    "MacModel",
    "LoadPoint",
    "OverSubscriptionError",
    "SimConfig",
    "SimResult",
    "StationAllocation",
    "TokenAllocation",
    "TokenRequest",
    "allocate_identifiers",
    "geometric_entropy",
    "md1_limits",
    "mm1_limits",
    "simulate_tdma",
]

# Overhead numerator for constant packet durations; quoted to three
# decimals in the queueing literature the limit derives from.
MD1_OVERHEAD_CONSTANT = 1.854

_DISCIPLINES = ("mm1", "md1")


def geometric_entropy(p: float) -> float:
    """Entropy of a geometric length distribution, bits per packet.

    H(p) = (-p log2 p - (1-p) log2(1-p)) / p for 0 < p <= 1; H(1) = 0.
    This is the length information a header must carry for the packet to
    be self-delimiting.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"geometric parameter must lie in (0, 1], got {p!r}")
    if p == 1.0:
        return 0.0
    return (-p * math.log2(p) - (1.0 - p) * math.log1p(-p) / math.log(2.0)) / p


@dataclass(frozen=True)
class MacModel:
    """Traffic model of the shared channel.

    ``mean_packet_bits`` is L = B * M[tau]; ``geometric_p`` the parameter
    of the mm1 length distribution (default 1/L, which gives mean L).
    """

    discipline: str
    mean_packet_bits: float
    bit_rate: float = 1.0
    geometric_p: float | None = None

    def __post_init__(self) -> None:
        if self.discipline not in _DISCIPLINES:
            raise ValueError(f"discipline must be one of {_DISCIPLINES}, got {self.discipline!r}")
        if not (self.mean_packet_bits >= 1.0 and math.isfinite(self.mean_packet_bits)):
            raise ValueError(f"mean packet length must be >= 1 bit, got {self.mean_packet_bits!r}")
        if not (self.bit_rate > 0.0 and math.isfinite(self.bit_rate)):
            raise ValueError(f"bit rate must be finite and > 0, got {self.bit_rate!r}")
        if self.geometric_p is not None and not (0.0 < self.geometric_p <= 1.0):
            raise ValueError(f"geometric_p must lie in (0, 1], got {self.geometric_p!r}")

    @property
    def mean_packet_s(self) -> float:
        return self.mean_packet_bits / self.bit_rate

    @property
    def p(self) -> float:
        return self.geometric_p if self.geometric_p is not None else 1.0 / self.mean_packet_bits


@dataclass(frozen=True)
class MacLimits:
    """Overhead infimum and throughput supremum; C_sup = 1 / (1 + v_inf)."""

    v_inf: float
    c_sup: float
    entropy_bits: float | None = None


def mm1_limits(model: MacModel) -> MacLimits:
    """Limits for geometric (memoryless-like) packet lengths."""
    if model.discipline != "mm1":
        raise ValueError(f"model discipline is {model.discipline!r}, expected 'mm1'")
    h = geometric_entropy(model.p)
    v_inf = (2.0 + h) / model.mean_packet_bits
    return MacLimits(v_inf=v_inf, c_sup=1.0 / (1.0 + v_inf), entropy_bits=h)


def md1_limits(model: MacModel) -> MacLimits:
    """Limits for constant packet durations."""
    if model.discipline != "md1":
        raise ValueError(f"model discipline is {model.discipline!r}, expected 'md1'")
    v_inf = MD1_OVERHEAD_CONSTANT / model.mean_packet_bits
    return MacLimits(v_inf=v_inf, c_sup=1.0 / (1.0 + v_inf), entropy_bits=None)


def limits_for(model: MacModel) -> MacLimits:
    """Dispatch to the discipline's limit formula."""
    return mm1_limits(model) if model.discipline == "mm1" else md1_limits(model)


# ---------------------------------------------------------------------------
# discrete-event cross-check


@dataclass(frozen=True)
class SimConfig:
    """Simulator run settings.

    ``loads`` are normalised offered loads G (1.0 saturates the server
    including overhead).  ``overhead`` is the per-packet overhead
    fraction v; None means "use the discipline's v_inf".
    ``corruption_prob`` enables an exploratory retransmission mode (each
    attempt fails independently with that probability and the packet is
    retransmitted); it is not part of the overhead-limit model.
    """

    loads: tuple[float, ...] = (0.2, 0.5, 0.8, 1.2, 1.5)
    overhead: float | None = None
    warmup_packets: int = 10_000
    measure_packets: int = 200_000
    batches: int = 20
    confidence: float = 0.95
    seed: int = 0
    corruption_prob: float = 0.0

    def __post_init__(self) -> None:
        if not self.loads or any(not (g > 0.0 and math.isfinite(g)) for g in self.loads):
            raise ValueError("loads must be positive and finite")
        if self.overhead is not None and not (self.overhead >= 0.0):
            raise ValueError(f"overhead must be >= 0, got {self.overhead!r}")
        if self.warmup_packets < 0:
            raise ValueError("warmup_packets must be >= 0")
        if self.batches < 2:
            raise ValueError("need at least 2 batches for a confidence interval")
        if self.measure_packets < 10 * self.batches:
            raise ValueError("measure_packets too small for the batch count")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence!r}")
        if not (0.0 <= self.corruption_prob < 1.0):
            raise ValueError(f"corruption_prob must lie in [0, 1), got {self.corruption_prob!r}")


@dataclass(frozen=True)
class LoadPoint:
    """Throughput at one offered load, with an exact time partition.

    useful + overhead + idle spans the measurement window (two packet
    completions) up to float summation error; ``unstable`` flags loads at
    or beyond the saturation point G = 1.
    """

    load: float
    throughput: float
    ci_low: float
    ci_high: float
    useful_time: float
    overhead_time: float
    idle_time: float
    window: float
    packets: int
    unstable: bool


@dataclass(frozen=True)
class SimResult:
    discipline: str
    overhead: float
    points: tuple[LoadPoint, ...]

    @property
    def capacity_empirical(self) -> float:
        return max(p.throughput for p in self.points)

    @property
    def saturation_throughput(self) -> float:
        """Theory: S -> 1 / (1 + v) as G grows past 1."""
        return 1.0 / (1.0 + self.overhead)

    def summary(self, limits: MacLimits | None = None) -> dict:
        out = {
            "overhead": self.overhead,
            "c_empirical": self.capacity_empirical,
            "saturation_throughput": self.saturation_throughput,
            "relative_gap": (self.saturation_throughput - self.capacity_empirical)
            / self.saturation_throughput,
        }
        if limits is not None:
            out["v_inf"] = limits.v_inf
            out["c_sup"] = limits.c_sup
        return out


def simulate_tdma(model: MacModel, config: SimConfig) -> SimResult:
    """Run the single-server TDMA queue over the configured load grid.

    Each position in the load grid gets its own SeedSequence child, so
    per-load streams never overlap.
    """
    v = config.overhead if config.overhead is not None else limits_for(model).v_inf
    children = np.random.SeedSequence(config.seed).spawn(len(config.loads))
    points = []
    for load, child in zip(config.loads, children):
        rng = np.random.default_rng(child)
        points.append(_run_load(model, config, load, v, rng))
    return SimResult(discipline=model.discipline, overhead=v, points=tuple(points))


def _lindley(inter: np.ndarray, busy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Completion times and idle gaps of a FIFO single server that starts empty at t = 0.

    Lindley's recursion finish[k] = max(A[k], finish[k-1]) + busy[k], with
    arrivals A = cumsum(inter), unrolls in the max-plus algebra to
    finish[k] = S[k] + max_{j <= k} (A[j] - S[j-1]) with S = cumsum(busy).
    The idle gap before packet k is max(A[k] - finish[k-1], 0): exactly 0
    whenever the packet queues, as in the recursion.
    """
    arrival = np.cumsum(inter)
    work = np.cumsum(busy)
    work_before = np.concatenate([[0.0], work[:-1]])
    finish = work + np.maximum.accumulate(arrival - work_before)
    idle = np.maximum(arrival - np.concatenate([[0.0], finish[:-1]]), 0.0)
    return finish, idle


def _run_load(model: MacModel, config: SimConfig, load: float, v: float,
              rng: np.random.Generator) -> LoadPoint:
    warm = config.warmup_packets
    measured = config.measure_packets
    batches = config.batches
    per_batch = measured // batches
    in_window = per_batch * batches  # measured packets, remainder dropped
    n_total = warm + in_window
    tau_mean = model.mean_packet_s

    lam = load / (tau_mean * (1.0 + v))
    inter = rng.exponential(1.0 / lam, size=n_total)
    if model.discipline == "mm1":
        tau = rng.geometric(model.p, size=n_total) / model.bit_rate
    else:
        tau = np.full(n_total, tau_mean)
    if config.corruption_prob > 0.0:
        attempts = rng.geometric(1.0 - config.corruption_prob, size=n_total).astype(np.float64)
    else:
        attempts = np.ones(n_total)
    busy = attempts * (tau + v * tau_mean)

    finish, idle = _lindley(inter, busy)
    # With no warmup the window opens at t = 0; otherwise it opens at the
    # last warmup completion.
    window_start = float(finish[warm - 1]) if warm > 0 else 0.0
    tau, busy, idle, finish = tau[warm:], busy[warm:], idle[warm:], finish[warm:]
    batch_useful = np.add.reduceat(tau, np.arange(0, in_window, per_batch))
    batch_end = finish[per_batch - 1::per_batch]
    sum_useful = math.fsum(tau.tolist())
    sum_overhead = math.fsum((busy - tau).tolist())
    sum_idle = math.fsum(idle.tolist())
    window = float(batch_end[-1]) - window_start

    starts = np.concatenate([[window_start], batch_end[:-1]])
    batch_windows = batch_end - starts
    batch_s = batch_useful / batch_windows
    mean_s = float(np.mean(batch_s))
    sdev = float(np.std(batch_s, ddof=1))
    z = statistics.NormalDist().inv_cdf(0.5 + config.confidence / 2.0)
    half = z * sdev / math.sqrt(batches)

    return LoadPoint(
        load=load,
        throughput=sum_useful / window,
        ci_low=mean_s - half,
        ci_high=mean_s + half,
        useful_time=sum_useful,
        overhead_time=sum_overhead,
        idle_time=sum_idle,
        window=window,
        packets=in_window,
        unstable=load >= 1.0,
    )


# ---------------------------------------------------------------------------
# identifier allocation


class OverSubscriptionError(ValueError):
    """The guaranteed minimum of one identifier per station exceeds the pool."""


@dataclass(frozen=True)
class TokenRequest:
    station: int
    share: float

    def __post_init__(self) -> None:
        if not isinstance(self.station, int) or self.station < 0:
            raise ValueError(f"station id must be a non-negative integer, got {self.station!r}")
        if not (self.share >= 0.0 and math.isfinite(self.share)):
            raise ValueError(f"share must be finite and >= 0, got {self.share!r}")


@dataclass(frozen=True)
class StationAllocation:
    station: int
    share: float
    count: int
    positions: range  # contiguous window positions, len == count
    identifiers: tuple[int, ...]


@dataclass(frozen=True)
class TokenAllocation:
    n: int
    pool: int  # 2**n - 1
    stations: tuple[StationAllocation, ...]

    def identifier_sets(self) -> dict[int, frozenset[int]]:
        return {s.station: frozenset(s.identifiers) for s in self.stations}


def _split_order(items: list[tuple[int, float, int]]) -> list[tuple[int, float, int]]:
    """Recursive near-equal-weight split of (station, share, count) blocks.

    Splitting a weight-sorted list at the point that best balances the
    two halves and recursing yields the block order of the classic
    entropy-style partition; the in-order traversal is the placement
    order of the contiguous identifier blocks.
    """
    if len(items) <= 1:
        return list(items)
    total = sum(c for _, _, c in items)
    best_k = 1
    best_diff = None
    acc = 0
    for k in range(1, len(items)):
        acc += items[k - 1][2]
        diff = abs(2 * acc - total)  # |left - right|
        if best_diff is None or diff < best_diff:
            best_diff = diff
            best_k = k
    return _split_order(items[:best_k]) + _split_order(items[best_k:])


def allocate_identifiers(requests, n: int, sequence: MSequence | None = None) -> TokenAllocation:
    """Apportion the 2**n - 1 window identifiers to stations by activity.

    ``requests`` is a mapping station -> share or an iterable of
    (station, share) pairs / :class:`TokenRequest`.  Counts follow
    largest-remainder apportionment of the quotas share / total * pool
    with a guaranteed minimum of one identifier per station (remainders
    broken by larger fractional part, then lower station id).  If the
    minimum lifts push past the pool size a
    :class:`OverSubscriptionError` is raised.

    Identifiers are the cyclic n-bit windows of ``sequence`` (default:
    the table m-sequence of degree n); every station gets a contiguous
    block of window positions, ordered by the recursive near-equal-weight
    split of the shares, so the sets are disjoint by the window property.
    """
    if isinstance(requests, dict):
        pairs = [TokenRequest(int(k), float(v)) for k, v in requests.items()]
    else:
        pairs = []
        for item in requests:
            if isinstance(item, TokenRequest):
                pairs.append(item)
            else:
                station, share = item
                pairs.append(TokenRequest(int(station), float(share)))
    if not pairs:
        raise ValueError("no stations to allocate to")
    ids = [r.station for r in pairs]
    if len(set(ids)) != len(ids):
        raise ValueError("station ids must be unique")

    if sequence is None:
        sequence = generate_msequence(n)
    if sequence.n != n:
        raise ValueError(f"sequence degree {sequence.n} does not match n={n}")
    pool = (1 << n) - 1
    if len(pairs) > pool:
        raise OverSubscriptionError(
            f"{len(pairs)} stations but only {pool} identifiers of degree {n}"
        )
    total_share = math.fsum(r.share for r in pairs)
    if total_share <= 0.0:
        raise ValueError("total share must be > 0")

    quotas = {r.station: r.share / total_share * pool for r in pairs}
    base = {s: max(1, math.floor(q)) for s, q in quotas.items()}
    remainder = pool - sum(base.values())
    if remainder < 0:
        raise OverSubscriptionError(
            f"minimum one identifier per station needs {sum(base.values())} slots, "
            f"pool has {pool} (degree {n}); drop stations or raise n"
        )
    # Distribute leftovers by largest fractional part among stations whose
    # base was not lifted to the minimum; ties favour the lower station id.
    unlifted = [s for s in base if base[s] == math.floor(quotas[s])]
    order = sorted(unlifted, key=lambda s: (-(quotas[s] - math.floor(quotas[s])), s))
    if remainder > len(order):  # float-edge fallback: cycle over everyone
        order = order + sorted(base, key=lambda s: (-(quotas[s] - math.floor(quotas[s])), s))
    counts = dict(base)
    for s in order[:remainder]:
        counts[s] += 1

    share_of = {r.station: r.share for r in pairs}
    blocks = sorted(((s, share_of[s], counts[s]) for s in counts),
                    key=lambda t: (-t[1], t[0]))
    placed = _split_order(blocks)

    windows = sequence.window_values()
    allocations = []
    cursor = 0
    for station, share, count in placed:
        allocations.append(StationAllocation(
            station=station, share=share, count=count,
            positions=range(cursor, cursor + count),
            identifiers=tuple(windows[cursor:cursor + count].tolist()),
        ))
        cursor += count
    if cursor != pool:
        raise RuntimeError(f"allocation placed {cursor} identifiers, pool has {pool}")
    allocations.sort(key=lambda a: a.station)
    return TokenAllocation(n=n, pool=pool, stations=tuple(allocations))
