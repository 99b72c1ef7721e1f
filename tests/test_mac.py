"""Access-control limits, the queueing cross-check, and identifier allocation."""

import dataclasses
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mchan.mac import (
    MD1_OVERHEAD_CONSTANT,
    LoadPoint,
    MacModel,
    OverSubscriptionError,
    SimConfig,
    _lindley,
    allocate_identifiers,
    geometric_entropy,
    limits_for,
    md1_limits,
    mm1_limits,
    simulate_tdma,
)
from mchan.msequence import generate_msequence


def loop_simulate(model, config):
    """Reference simulator: Lindley's recursion one packet at a time."""
    v = config.overhead if config.overhead is not None else limits_for(model).v_inf
    children = np.random.SeedSequence(config.seed).spawn(len(config.loads))
    return tuple(loop_run_load(model, config, load, v, np.random.default_rng(child))
                 for load, child in zip(config.loads, children))


def loop_run_load(model, config, load, v, rng):
    warm = config.warmup_packets
    batches = config.batches
    per_batch = config.measure_packets // batches
    in_window = per_batch * batches
    n_total = warm + in_window
    tau_mean = model.mean_packet_s
    lam = load / (tau_mean * (1.0 + v))
    inter = rng.exponential(1.0 / lam, size=n_total)
    if model.discipline == "mm1":
        tau = rng.geometric(model.p, size=n_total) / model.bit_rate
    else:
        tau = np.full(n_total, tau_mean)
    busy = tau + v * tau_mean

    batch_useful = np.zeros(batches)
    batch_end = np.zeros(batches)
    sum_useful = sum_overhead = sum_idle = 0.0
    arrival = finish = window_start = 0.0
    for k in range(n_total):
        arrival += inter[k]
        start = arrival if arrival > finish else finish
        idle = start - finish
        finish = start + busy[k]
        if k < warm:
            if k == warm - 1:
                window_start = finish
            continue
        i = k - warm
        b = i // per_batch
        batch_useful[b] += tau[k]
        sum_useful += tau[k]
        sum_overhead += busy[k] - tau[k]
        sum_idle += idle
        if i % per_batch == per_batch - 1:
            batch_end[b] = finish
    window = batch_end[-1] - window_start
    starts = np.concatenate([[window_start], batch_end[:-1]])
    batch_s = batch_useful / (batch_end - starts)
    mean_s = float(np.mean(batch_s))
    z = statistics.NormalDist().inv_cdf(0.5 + config.confidence / 2.0)
    half = z * float(np.std(batch_s, ddof=1)) / math.sqrt(batches)
    return LoadPoint(load=load, throughput=sum_useful / window, ci_low=mean_s - half,
                     ci_high=mean_s + half, useful_time=sum_useful,
                     overhead_time=sum_overhead, idle_time=sum_idle, window=window,
                     packets=in_window, unstable=load >= 1.0)


# ---------------------------------------------------------------- limits


def test_geometric_entropy_exact_points():
    assert geometric_entropy(0.5) == 2.0
    assert geometric_entropy(1.0) == 0.0


def test_geometric_entropy_matches_series_oracle():
    # direct distribution entropy, summed term by term
    p = 0.01
    terms = []
    for k in range(1, 20_000):
        pk = p * (1.0 - p) ** (k - 1)
        terms.append(-pk * math.log2(pk))
    oracle = math.fsum(terms)
    assert geometric_entropy(p) == pytest.approx(oracle, rel=1e-12)
    assert geometric_entropy(p) == pytest.approx(8.079313589591118, rel=1e-12)


def test_geometric_entropy_domain():
    with pytest.raises(ValueError):
        geometric_entropy(0.0)
    with pytest.raises(ValueError):
        geometric_entropy(1.5)


def test_md1_limits_frozen():
    model = MacModel(discipline="md1", mean_packet_bits=1000.0)
    lim = md1_limits(model)
    assert lim.v_inf == pytest.approx(0.001854, rel=1e-12)
    assert lim.c_sup == pytest.approx(1.0 / 1.001854, rel=1e-12)
    assert lim.entropy_bits is None


def test_mm1_limits_structure():
    model = MacModel(discipline="mm1", mean_packet_bits=1000.0)
    lim = mm1_limits(model)
    h = geometric_entropy(1.0 / 1000.0)
    assert lim.entropy_bits == h
    assert lim.v_inf == pytest.approx((2.0 + h) / 1000.0, rel=1e-15)


def test_supremum_identity_is_exact():
    # c_sup * (1 + v_inf) == 1 must hold bitwise, not just approximately
    for make, disc in ((mm1_limits, "mm1"), (md1_limits, "md1")):
        lim = make(MacModel(discipline=disc, mean_packet_bits=1000.0))
        assert lim.c_sup * (1.0 + lim.v_inf) == 1.0


def test_constant_lengths_beat_geometric_lengths():
    # the geometric length head costs (2 + H)/L > 1.854/L at every L
    for length in np.geomspace(2.0, 1e6, 25):
        mm1 = mm1_limits(MacModel(discipline="mm1", mean_packet_bits=float(length)))
        md1 = md1_limits(MacModel(discipline="md1", mean_packet_bits=float(length)))
        assert md1.c_sup > mm1.c_sup
        assert md1.v_inf == pytest.approx(MD1_OVERHEAD_CONSTANT / length, rel=1e-15)


def test_model_validation():
    with pytest.raises(ValueError):
        MacModel(discipline="fifo", mean_packet_bits=100.0)
    with pytest.raises(ValueError):
        MacModel(discipline="md1", mean_packet_bits=0.5)
    with pytest.raises(ValueError):
        mm1_limits(MacModel(discipline="md1", mean_packet_bits=10.0))
    with pytest.raises(ValueError):
        md1_limits(MacModel(discipline="mm1", mean_packet_bits=10.0))


# ------------------------------------------------------------- simulator


def test_overloaded_server_approaches_saturation():
    model = MacModel(discipline="md1", mean_packet_bits=100.0)
    config = SimConfig(loads=(1.5,), warmup_packets=2000, measure_packets=40_000,
                       seed=7)
    res = simulate_tdma(model, config)
    point = res.points[0]
    assert point.unstable
    assert point.throughput == pytest.approx(res.saturation_throughput, rel=1e-2)


def test_stable_load_carries_the_offered_traffic():
    model = MacModel(discipline="mm1", mean_packet_bits=100.0)
    config = SimConfig(loads=(0.5,), warmup_packets=2000, measure_packets=40_000,
                       seed=11)
    res = simulate_tdma(model, config)
    point = res.points[0]
    assert not point.unstable
    # all offered work is served: S = G / (1 + v)
    assert point.throughput == pytest.approx(0.5 / (1.0 + res.overhead), rel=3e-2)
    assert point.ci_low < point.ci_high
    assert point.ci_low - 0.02 <= point.throughput <= point.ci_high + 0.02


def test_time_partition_is_conserved():
    model = MacModel(discipline="md1", mean_packet_bits=50.0)
    config = SimConfig(loads=(0.4, 1.2), warmup_packets=500, measure_packets=5_000,
                       batches=10, seed=3)
    for point in simulate_tdma(model, config).points:
        total = point.useful_time + point.overhead_time + point.idle_time
        assert total == pytest.approx(point.window, rel=1e-9)
        assert point.packets == 5_000


def test_simulation_is_deterministic():
    model = MacModel(discipline="mm1", mean_packet_bits=64.0)
    config = SimConfig(loads=(0.8, 1.2), warmup_packets=200, measure_packets=2_000,
                       batches=4, seed=21)
    assert simulate_tdma(model, config) == simulate_tdma(model, config)


@pytest.mark.parametrize("discipline", ["mm1", "md1"])
@pytest.mark.parametrize("case", [
    dict(loads=(0.6, 1.3), warmup_packets=1000, measure_packets=8000, batches=8),
    dict(loads=(0.4, 1.1), warmup_packets=0, measure_packets=4000, batches=5),
    dict(loads=(0.7, 1.5), warmup_packets=300, measure_packets=5007, batches=10),
], ids=["stable_and_unstable", "no_warmup", "remainder_dropped"])
def test_simulator_equals_the_packet_loop(discipline, case):
    model = MacModel(discipline=discipline, mean_packet_bits=80.0)
    config = SimConfig(seed=17, **case)
    fast = simulate_tdma(model, config).points
    slow = loop_simulate(model, config)
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        for field in dataclasses.fields(LoadPoint):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(y, bool) or field.name == "packets":
                assert x == y, field.name
            else:
                assert x == pytest.approx(y, rel=1e-9, abs=0.0), field.name


_gaps = st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=200)


@settings(deadline=None)
@given(_gaps, st.data())
def test_max_plus_finish_equals_the_recursion(inter, data):
    busy = data.draw(st.lists(st.floats(min_value=1e-3, max_value=1e3),
                              min_size=len(inter), max_size=len(inter)))
    finish, idle = _lindley(np.array(inter), np.array(busy))
    arrival = done = 0.0
    for k, (gap, work) in enumerate(zip(inter, busy)):
        arrival += gap
        start = max(arrival, done)
        assert idle[k] == pytest.approx(start - done, rel=1e-9, abs=1e-9 * start)
        done = start + work
        assert finish[k] == pytest.approx(done, rel=1e-9, abs=0.0)


def test_summary_reports_the_gap():
    model = MacModel(discipline="md1", mean_packet_bits=100.0)
    config = SimConfig(loads=(1.5,), warmup_packets=1000, measure_packets=20_000, seed=1)
    res = simulate_tdma(model, config)
    summary = res.summary(md1_limits(model))
    assert set(summary) == {"overhead", "c_empirical", "saturation_throughput",
                            "relative_gap", "v_inf", "c_sup"}
    assert abs(summary["relative_gap"]) < 0.05
    assert summary["v_inf"] == res.overhead  # default overhead is the limit value


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(loads=())
    with pytest.raises(ValueError):
        SimConfig(loads=(0.5,), batches=1)
    with pytest.raises(ValueError):
        SimConfig(loads=(0.5,), measure_packets=50, batches=20)
    with pytest.raises(ValueError):
        SimConfig(loads=(0.5,), confidence=0.0)


# ------------------------------------------------------------- allocator


def test_allocation_hand_example():
    alloc = allocate_identifiers({1: 0.5, 2: 0.3, 3: 0.2}, n=3)
    assert alloc.pool == 7
    by_station = {s.station: s for s in alloc.stations}
    assert by_station[1].count == 4  # quota 3.5, wins the spare by remainder
    assert by_station[2].count == 2  # quota 2.1
    assert by_station[3].count == 1  # quota 1.4
    # identifiers partition 1..7
    all_ids = sorted(i for s in alloc.stations for i in s.identifiers)
    assert all_ids == list(range(1, 8))


def test_allocation_respects_quota_error_bound():
    rng = np.random.default_rng(99)
    seq = generate_msequence(4)
    for _ in range(50):
        k = int(rng.integers(2, 9))
        shares = {int(i): float(s) for i, s in enumerate(rng.uniform(0.05, 1.0, size=k))}
        total = sum(shares.values())
        try:
            alloc = allocate_identifiers(shares, n=4, sequence=seq)
        except OverSubscriptionError:
            # only legitimate when the guaranteed minimums cannot fit
            base = sum(max(1, math.floor(s / total * 15)) for s in shares.values())
            assert base > 15
            continue
        counts = {s.station: s.count for s in alloc.stations}
        assert sum(counts.values()) == 15
        seen = set()
        for st in alloc.stations:
            assert st.count >= 1
            quota = shares[st.station] / total * 15
            assert abs(st.count - quota) < 1.0 + 1e-9
            ids = set(st.identifiers)
            assert len(ids) == st.count
            assert not (ids & seen)
            seen |= ids
            assert all(1 <= i <= 15 for i in ids)
            # contiguous window positions
            pos = sorted(st.positions)
            assert pos == list(range(pos[0], pos[0] + st.count))
        assert len(seen) == 15


def test_allocation_identifiers_come_from_the_window_map():
    seq = generate_msequence(3, taps=(3, 1))
    alloc = allocate_identifiers({0: 1.0}, n=3, sequence=seq)
    station = alloc.stations[0]
    assert station.count == 7
    assert list(station.identifiers) == seq.window_values()[list(station.positions)].tolist()


def test_allocation_positions_are_ranges():
    alloc = allocate_identifiers({1: 0.5, 2: 0.3, 3: 0.2}, n=8)
    cursor = 0
    for station in sorted(alloc.stations, key=lambda a: a.positions.start):
        assert isinstance(station.positions, range)
        assert len(station.positions) == station.count == len(station.identifiers)
        assert station.positions.start == cursor
        cursor = station.positions.stop
    assert cursor == alloc.pool


def test_allocation_partitions_degree16_pool():
    shares = {i: float(s) for i, s in enumerate(np.random.default_rng(3).uniform(0.1, 1.0, 40))}
    alloc = allocate_identifiers(shares, n=16)
    ids = np.concatenate([np.array(s.identifiers) for s in alloc.stations])
    assert np.array_equal(np.sort(ids), np.arange(1, 2**16))
    windows = generate_msequence(16).window_values()
    for s in alloc.stations:
        assert s.identifiers == tuple(windows[s.positions.start:s.positions.stop].tolist())


def test_allocation_oversubscription():
    # 20 stations into 15 identifiers cannot honour the minimum of one
    shares = {i: 1.0 for i in range(20)}
    with pytest.raises(OverSubscriptionError):
        allocate_identifiers(shares, n=4)
    # one dominant station squeezing many minimum lifts also fails
    with pytest.raises(OverSubscriptionError):
        allocate_identifiers({0: 100.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0,
                              6: 1.0, 7: 1.0}, n=3)


def test_allocation_input_forms():
    as_dict = allocate_identifiers({1: 2.0, 2: 1.0}, n=3)
    as_pairs = allocate_identifiers([(1, 2.0), (2, 1.0)], n=3)
    assert as_dict == as_pairs
    sets = as_dict.identifier_sets()
    assert set(sets) == {1, 2}


def test_allocation_validation():
    with pytest.raises(ValueError):
        allocate_identifiers({}, n=3)
    with pytest.raises(ValueError):
        allocate_identifiers({1: 0.0, 2: 0.0}, n=3)  # no positive share
    with pytest.raises(ValueError):
        allocate_identifiers([(1, 1.0), (1, 2.0)], n=3)  # duplicate station
    with pytest.raises(ValueError, match="station id must be a non-negative integer"):
        allocate_identifiers({-1: 1.0}, n=3)
    with pytest.raises(ValueError, match="share must be finite and >= 0"):
        allocate_identifiers([(1, -0.5)], n=3)
