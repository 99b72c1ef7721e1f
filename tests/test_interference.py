"""Orthogonality-error interference: exact zeros, error ladders, surfaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mchan.interference as interference
from mchan.interference import (
    CellLayout,
    InterferingCell,
    SignalEnsemble,
    SyncErrorModel,
    cross_correlation,
    degree_interference_sweep,
    inter_cell_interference,
    intra_cell_interference,
    sinr_surface,
)
from mchan.msequence import distinct_msequences, generate_msequence


def walsh_ensemble(degree=4, rows=8, cell_id=0):
    return SignalEnsemble.walsh(generate_msequence(degree), rows, cell_id=cell_id)


def test_walsh_gram_is_exactly_diagonal():
    ens = walsh_ensemble(degree=4, rows=8)
    gram = ens.zero_offset_gram()
    assert gram.dtype == np.int64
    assert np.array_equal(gram, 16 * np.eye(8, dtype=np.int64))


def test_ensemble_validation():
    with pytest.raises(ValueError):
        SignalEnsemble(np.array([[1, 0, -1, 1]]))  # zero chip
    with pytest.raises(ValueError):
        SignalEnsemble(np.array([1, -1, 1, -1]))  # not 2-D
    with pytest.raises(ValueError):
        SignalEnsemble(np.array([[1, -1], [1, 1]]), chip_duration=0.0)
    with pytest.raises(ValueError):
        SignalEnsemble.walsh(generate_msequence(3), rows=9)  # only 8 rows exist
    with pytest.raises(ValueError):
        SignalEnsemble.walsh(generate_msequence(3), rows=[1, 1])
    with pytest.raises(ValueError):
        SignalEnsemble.cyclic_shifts(generate_msequence(3), [0, 7])  # 7 % 7 == 0


def test_sync_error_model():
    assert SyncErrorModel().is_zero
    assert not SyncErrorModel(timing_std_chips=0.1).is_zero
    with pytest.raises(ValueError):
        SyncErrorModel(timing_std_chips=-0.1)
    with pytest.raises(ValueError):
        SyncErrorModel(phase_std_rad=math.inf)


def test_perfect_sync_orthogonal_cell_is_exactly_zero():
    est = intra_cell_interference(walsh_ensemble(), SyncErrorModel(), trials=100, seed=7)
    assert est.power == 0.0
    assert est.std_error == 0.0
    assert est.trials == 100


def test_perfect_sync_shift_cell_hits_exact_floor():
    # distinct shifts of one m-sequence correlate to exactly -1 at zero lag
    seq = generate_msequence(4)  # N = 15
    ens = SignalEnsemble.cyclic_shifts(seq, [0, 3, 7, 11])
    est = intra_cell_interference(ens, SyncErrorModel(), trials=10, seed=0)
    # 3 interferers, each |R|/N/T = 1/(15*15)
    assert est.power == pytest.approx(3.0 / 225.0, rel=1e-15)
    assert est.std_error == 0.0


def test_interference_grows_with_timing_error():
    ens = walsh_ensemble(degree=5, rows=8)
    powers = []
    for width in (0.0, 0.05, 0.1, 0.2):
        est = intra_cell_interference(ens, SyncErrorModel(timing_std_chips=width),
                                      trials=2000, seed=2026)
        powers.append(est.power)
    assert powers[0] == 0.0
    assert all(b > a for a, b in zip(powers, powers[1:]))


def test_cross_correlation_reference_behaviour():
    seq = generate_msequence(4)
    ref = seq.chips
    sig = np.roll(seq.chips, 5)
    L = ref.size
    # integer offsets: plain cyclic dot product
    for d in (0, 1, 7):
        expect = float(np.dot(ref, np.roll(sig, -d))) / L
        assert cross_correlation(ref, sig, timing_offset_chips=float(d)) == pytest.approx(
            expect, rel=1e-15, abs=1e-15
        )
    # fractional offsets interpolate between the neighbours
    k0 = cross_correlation(ref, sig, 2.0)
    k1 = cross_correlation(ref, sig, 3.0)
    km = cross_correlation(ref, sig, 2.25)
    assert km == pytest.approx(0.75 * k0 + 0.25 * k1, rel=1e-12, abs=1e-15)
    # phase rotation scales by cos
    assert cross_correlation(ref, sig, 2.0, phase_offset_rad=1.0) == pytest.approx(
        math.cos(1.0) * k0, rel=1e-12, abs=1e-15
    )
    with pytest.raises(ValueError):
        cross_correlation(ref, sig[:-1])


def test_estimator_path_matches_reference_correlation():
    # white box: the table-driven estimator must reproduce the reference
    # correlation for every drawn offset
    from mchan.interference import _draw_errors, _ksq_for_block, _lag_corr

    seq = generate_msequence(4)
    ens = SignalEnsemble.cyclic_shifts(seq, [0, 4, 9])
    errors = SyncErrorModel(timing_std_chips=0.3, phase_std_rad=0.2)
    z, y, u = _draw_errors(seed=5, trials=8, widths=[2])
    ref = ens.signals[0]
    sigs = ens.signals[1:]
    ksq = _ksq_for_block(_lag_corr(ref, sigs), z, y, u, errors, random_lag=False)
    for t in range(8):
        for j in range(2):
            k = cross_correlation(ref, sigs[j],
                                  timing_offset_chips=0.3 * z[t, j],
                                  phase_offset_rad=0.2 * y[t, j])
            assert ksq[t, j] == pytest.approx(k * k, rel=1e-10, abs=1e-18)


def test_random_lag_path_matches_reference_correlation():
    # white box, inter-cell: a uniform integer symbol lag on top of the
    # jitter, checked against the reference for every drawn offset
    from mchan.interference import _draw_errors, _ksq_for_block, _lag_corr

    own, other = distinct_msequences(5, 2)
    ref = SignalEnsemble.walsh(own, 4).signals[1]
    sigs = SignalEnsemble.walsh(other, 3).signals
    L = ref.size
    errors = SyncErrorModel(timing_std_chips=0.4, phase_std_rad=0.7)
    z, y, u = _draw_errors(seed=12, trials=30, widths=[3])
    ksq = _ksq_for_block(_lag_corr(ref, sigs), z, y, u, errors, random_lag=True)
    for t in range(30):
        for j in range(3):
            k = cross_correlation(ref, sigs[j],
                                  timing_offset_chips=0.4 * z[t, j] + math.floor(u[t, j] * L),
                                  phase_offset_rad=0.7 * y[t, j])
            assert ksq[t, j] == pytest.approx(k * k, rel=1e-10, abs=1e-18)


@pytest.mark.parametrize("degree", [2, 4, 7, 10])
def test_lag_corr_is_the_exact_integer_correlation(degree):
    from mchan.interference import _lag_corr

    seqs = distinct_msequences(degree, 2) if degree > 2 else [generate_msequence(degree)] * 2
    rows = min(4, 1 << degree)
    kinds = {
        "walsh": (SignalEnsemble.walsh(seqs[0], rows).signals[0],
                  SignalEnsemble.walsh(seqs[1], rows).signals),
        "shifts": (SignalEnsemble.cyclic_shifts(seqs[0], 3).signals[0],
                   SignalEnsemble.cyclic_shifts(seqs[1], 3).signals),
        "random": tuple(np.random.default_rng(degree).choice([-1, 1], size=(n, 1 << degree))
                        .astype(np.int8) for n in (1, 5)),
    }
    for ref, sigs in kinds.values():
        ref = ref.reshape(-1)
        table = _lag_corr(ref, sigs)
        assert table.shape == (sigs.shape[0], ref.size)
        ref64 = ref.astype(np.int64)
        expect = np.array([[np.dot(ref64, np.roll(sig, -d).astype(np.int64))
                            for d in range(ref.size)] for sig in sigs])
        assert np.array_equal(table, expect)


def _oracle_draws(seed, trials, widths):
    """The per-trial SeedSequence.spawn + default_rng loop the fast draws replace."""
    total = sum(widths)
    z = np.empty((trials, total))
    y = np.empty((trials, total))
    u = np.empty((trials, total))
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(child)
        pos = 0
        for w in widths:
            z[t, pos:pos + w] = rng.standard_normal(w)
            y[t, pos:pos + w] = rng.standard_normal(w)
            u[t, pos:pos + w] = rng.random(w)
            pos += w
    return z, y, u


def _assert_draws_equal(seed, trials, widths):
    fast = interference._draw_errors(seed, trials, widths)
    for got, expect in zip(fast, _oracle_draws(seed, trials, widths)):
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("trials", [1, 2, 257])
@pytest.mark.parametrize("widths", [[1], [7], [8, 8], [3, 1, 4]])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200])
def test_draws_are_bit_identical_to_per_trial_spawn(seed, widths, trials):
    _assert_draws_equal(seed, trials, widths)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**160), st.integers(1, 40),
       st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_draws_match_per_trial_spawn_property(seed, trials, widths):
    _assert_draws_equal(seed, trials, widths)


def test_seeding_certificate_catches_a_wrong_state(monkeypatch):
    monkeypatch.setattr(interference, "_PCG_MULT", interference._PCG_MULT ^ 2)
    with pytest.raises(RuntimeError, match="disagrees with NumPy"):
        interference._draw_errors(3, 5, [2])
    ens = walsh_ensemble()
    with pytest.raises(RuntimeError):
        intra_cell_interference(ens, SyncErrorModel(timing_std_chips=0.1), trials=4, seed=0)


def make_layout(weight=1.0):
    own, other = distinct_msequences(5, 2)
    ref_ens = SignalEnsemble.cyclic_shifts(own, 4, cell_id=0)
    int_ens = SignalEnsemble.cyclic_shifts(other, 4, cell_id=1)
    return CellLayout(reference=ref_ens,
                      interferers=(InterferingCell(ensemble=int_ens, weight=weight),))


def test_inter_cell_power_positive_even_in_sync():
    # unsynchronised cells draw random symbol lags, so the power never
    # collapses to zero the way the intra-cell term does
    est = inter_cell_interference(make_layout(), SyncErrorModel(), trials=500, seed=1)
    assert est.power > 0.0
    assert est.std_error > 0.0
    assert est.trials == 500


def test_inter_cell_weight_is_linear():
    a = inter_cell_interference(make_layout(1.0), SyncErrorModel(), trials=300, seed=9)
    b = inter_cell_interference(make_layout(2.0), SyncErrorModel(), trials=300, seed=9)
    assert b.power == 2.0 * a.power  # exact: same draws, amplitude scales out


def test_no_interferers_is_zero():
    layout = CellLayout(reference=walsh_ensemble(), interferers=())
    est = inter_cell_interference(layout, SyncErrorModel(0.1, 0.1), trials=50, seed=3)
    assert est.power == 0.0 and est.std_error == 0.0


def test_layout_validation():
    ref = walsh_ensemble(degree=4, rows=4)
    short = SignalEnsemble.cyclic_shifts(generate_msequence(3), 2)
    with pytest.raises(ValueError):
        CellLayout(reference=ref, interferers=(InterferingCell(ensemble=short),))
    slow = SignalEnsemble.walsh(generate_msequence(4), 4, chip_duration=2.0)
    with pytest.raises(ValueError):
        CellLayout(reference=ref, interferers=(InterferingCell(ensemble=slow),))
    with pytest.raises(ValueError):
        InterferingCell(ensemble=ref, weight=-1.0)


def test_seed_determinism():
    ens = walsh_ensemble(degree=5, rows=8)
    errors = SyncErrorModel(timing_std_chips=0.15, phase_std_rad=0.1)
    a = intra_cell_interference(ens, errors, trials=400, seed=42)
    b = intra_cell_interference(ens, errors, trials=400, seed=42)
    c = intra_cell_interference(ens, errors, trials=400, seed=43)
    assert a == b
    assert a.power != c.power


def test_trials_validation():
    with pytest.raises(ValueError):
        intra_cell_interference(walsh_ensemble(), SyncErrorModel(), trials=0, seed=0)
    with pytest.raises(ValueError):
        intra_cell_interference(walsh_ensemble(), SyncErrorModel(), trials=10, seed=0,
                                ref_index=99)


def _estimators(trials, seed):
    ens = walsh_ensemble()
    noisy = SyncErrorModel(timing_std_chips=0.1)
    return [
        lambda: intra_cell_interference(ens, SyncErrorModel(), trials, seed),
        lambda: intra_cell_interference(ens, noisy, trials, seed),
        lambda: inter_cell_interference(make_layout(), noisy, trials, seed),
        lambda: sinr_surface([0.0], [0.0], ensemble=ens, trials=trials, seed=seed),
        lambda: degree_interference_sweep((4,), trials=trials, seed=seed),
    ]


@pytest.mark.parametrize("trials", [True, 0, -3, 2.0, "10"])
def test_every_estimator_rejects_bad_trials(trials):
    for call in _estimators(trials, seed=0):
        with pytest.raises(ValueError, match="trials"):
            call()


@pytest.mark.parametrize("seed", [-1, True, 1.5, "3", None])
def test_every_estimator_rejects_bad_seeds(seed):
    # zero-error intra ignores the draws but still refuses the seed
    for call in _estimators(10, seed):
        with pytest.raises(ValueError, match="seed"):
            call()


def test_longer_sequences_suppress_interference():
    rows = degree_interference_sweep((6, 8, 10), trials=1500, seed=11)
    assert [r[0] for r in rows] == [6, 8, 10]
    powers = [r[1] for r in rows]
    assert powers[0] > powers[1] > powers[2]


def test_surface_quiet_corner_is_noise_limited():
    ens = walsh_ensemble(degree=4, rows=4)
    res = sinr_surface([0.0, 0.1], [0.0, 0.2], ensemble=ens, trials=400, seed=0)
    assert len(res.points) == 4
    corner = res.points[0]
    assert corner.timing_std_chips == 0.0 and corner.phase_std_rad == 0.0
    # perfect sync leaves only the noise floor
    assert corner.sinr_db == pytest.approx(113.101, abs=1e-9)
    # SINR can only fall as the error widths grow (shared draws)
    worst = res.points[-1]
    assert worst.sinr_db < corner.sinr_db
    by_timing = [p.sinr_db for p in res.points if p.phase_std_rad == 0.0]
    assert by_timing[1] <= by_timing[0]


def test_surface_points_equal_the_public_estimates():
    own, a, b = distinct_msequences(5, 3)
    ens = SignalEnsemble.walsh(own, 6)
    layout = CellLayout(reference=ens, interferers=(
        InterferingCell(SignalEnsemble.walsh(a, 6, cell_id=1), weight=0.7),
        InterferingCell(SignalEnsemble.walsh(b, 3, cell_id=2), weight=0.2)))
    timing, phase = [0.0, 0.15, 0.4], [0.0, 0.6]
    res = sinr_surface(timing, phase, layout=layout, noise_power_db=-40.0, trials=150,
                       seed=2**33 + 1, ref_index=2)
    points = iter(res.points)
    for et in timing:
        for ep in phase:
            errors = SyncErrorModel(et, ep)
            p_total = 10.0 ** (-40.0 / 10.0)
            p_total += intra_cell_interference(ens, errors, 150, 2**33 + 1, 2).power
            p_total += inter_cell_interference(layout, errors, 150, 2**33 + 1, 2).power
            assert next(points).sinr_db == -10.0 * math.log10(p_total)


def test_sweep_rows_equal_the_public_estimates():
    errors = SyncErrorModel(timing_std_chips=0.2, phase_std_rad=0.3)
    rows = degree_interference_sweep((4, 6), trials=120, seed=8, signals_per_cell=3,
                                     errors=errors)
    for (n, power, se), degree in zip(rows, (4, 6)):
        own, other = distinct_msequences(degree, 2)
        layout = CellLayout(
            reference=SignalEnsemble.cyclic_shifts(own, 3),
            interferers=(InterferingCell(SignalEnsemble.cyclic_shifts(other, 3, cell_id=1)),))
        est = inter_cell_interference(layout, errors, 120, 8)
        assert (n, power, se) == (degree, est.power, est.std_error)


def _count_draws(monkeypatch):
    calls = []
    real = interference._draw_errors

    def counting(seed, trials, widths):
        calls.append((seed, trials, tuple(widths)))
        return real(seed, trials, widths)
    monkeypatch.setattr(interference, "_draw_errors", counting)
    return calls


def test_surface_draws_once_per_distinct_widths(monkeypatch):
    calls = _count_draws(monkeypatch)
    own, a, b = distinct_msequences(5, 3)
    ens = SignalEnsemble.walsh(own, 5)
    layout = CellLayout(reference=ens, interferers=(
        InterferingCell(SignalEnsemble.walsh(a, 5, cell_id=1)),
        InterferingCell(SignalEnsemble.walsh(b, 5, cell_id=2))))
    sinr_surface(np.linspace(0, 0.3, 4), np.linspace(0, 0.5, 4), layout=layout, trials=40,
                 seed=1)
    assert sorted(calls) == [(1, 40, (4,)), (1, 40, (5, 5))]
    # an intra block as wide as a one-cell layout shares its draws
    calls.clear()
    one = CellLayout(reference=ens, interferers=(
        InterferingCell(SignalEnsemble.walsh(a, 4, cell_id=1)),))
    sinr_surface([0.0, 0.2], [0.0, 0.1], layout=one, trials=40, seed=1)
    assert calls == [(1, 40, (4,))]
    # an intra-only surface at zero error draws nothing
    calls.clear()
    sinr_surface([0.0], [0.0], ensemble=ens, trials=40, seed=1)
    assert calls == []


def test_sweep_draws_once(monkeypatch):
    calls = _count_draws(monkeypatch)
    degree_interference_sweep((4, 5, 6), trials=30, seed=2)
    assert calls == [(2, 30, (4,))]


def test_surface_needs_a_source():
    with pytest.raises(ValueError):
        sinr_surface([0.0], [0.0], trials=10, seed=0)
