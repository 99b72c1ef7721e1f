"""Interference from orthogonality errors: ensembles and Monte Carlo estimators.

Signals are rows of +/-1 chips.  Within a cell the rows are Walsh
functions scrambled by the cell's m-sequence (orthogonal at zero offset);
across cells only the scrambling sequences differ, so residual
correlation remains at any offset.  Synchronisation errors are modelled
per trial as a Gaussian timing offset (chips) and a Gaussian carrier
phase offset (radians):

    K = cos(phase) * R(lag + delta) / L,

where R is the cyclic cross-correlation and fractional-chip offsets are
resolved by linear interpolation between adjacent integer lags.  The
estimators report

    P = sum_sources w_s / T * sqrt(mean K**2),

the per-source root-mean-square correlation scaled by the symbol
duration T, with a delta-method standard error.

Reproducibility: each trial draws from its own child of
numpy.random.SeedSequence(seed), so estimates are independent of trial
chunking and identical across runs; sweeps that reuse one seed share the
same error draws (common random numbers), which keeps monotone ladders
monotone at finite trial counts.  Surfaces and degree sweeps draw once
per distinct (seed, trials, widths) and evaluate every point from those
arrays, so each point equals the corresponding public estimate exactly.
The children's PCG64 states are computed in bulk from SeedSequence's
published hash rather than by ``spawn``; every call recomputes its first
and last trial's state with NumPy itself and raises RuntimeError on any
difference, so a NumPy change cannot silently alter an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mchan.msequence import MSequence

__all__ = [
    "CellLayout",
    "InterferenceEstimate",
    "InterferingCell",
    "SignalEnsemble",
    "SurfacePoint",
    "SurfaceResult",
    "SyncErrorModel",
    "cross_correlation",
    "degree_interference_sweep",
    "inter_cell_interference",
    "intra_cell_interference",
    "sinr_surface",
]


@dataclass(frozen=True)
class SyncErrorModel:
    """Standard deviations of the synchronisation errors.

    ``timing_std_chips`` is the timing jitter in chip units,
    ``phase_std_rad`` the carrier phase jitter in radians; both Gaussian,
    zero mean, drawn independently per trial and per interfering signal.
    """

    timing_std_chips: float = 0.0
    phase_std_rad: float = 0.0

    def __post_init__(self) -> None:
        for name in ("timing_std_chips", "phase_std_rad"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")

    @property
    def is_zero(self) -> bool:
        return self.timing_std_chips == 0.0 and self.phase_std_rad == 0.0


def _parity(v: np.ndarray) -> np.ndarray:
    """Bitwise parity of non-negative integers (vectorised)."""
    v = v.astype(np.uint32)
    v ^= v >> np.uint32(16)
    v ^= v >> np.uint32(8)
    v ^= v >> np.uint32(4)
    v ^= v >> np.uint32(2)
    v ^= v >> np.uint32(1)
    return (v & np.uint32(1)).astype(np.int8)


class SignalEnsemble:
    """A cell's set of unit-amplitude +/-1 signals on a common chip grid."""

    def __init__(self, signals: np.ndarray, chip_duration: float = 1.0, cell_id: int = 0,
                 kind: str = "custom"):
        signals = np.asarray(signals)
        if signals.ndim != 2 or signals.shape[0] < 1 or signals.shape[1] < 2:
            raise ValueError("signals must be a 2-D array, one row per signal")
        if not np.isin(signals, (-1, 1)).all():
            raise ValueError("signal chips must be +/-1")
        if not (chip_duration > 0.0 and math.isfinite(chip_duration)):
            raise ValueError(f"chip duration must be finite and > 0, got {chip_duration!r}")
        self.signals = signals.astype(np.int8)
        self.chip_duration = float(chip_duration)
        self.cell_id = int(cell_id)
        self.kind = kind

    @property
    def n_signals(self) -> int:
        return self.signals.shape[0]

    @property
    def n_chips(self) -> int:
        return self.signals.shape[1]

    @property
    def symbol_duration(self) -> float:
        return self.n_chips * self.chip_duration

    @classmethod
    def walsh(cls, scrambler: MSequence, rows: int | list[int] | tuple[int, ...],
              chip_duration: float = 1.0, cell_id: int = 0) -> "SignalEnsemble":
        """Walsh rows scrambled by the cell's m-sequence.

        The Walsh order is 2**n for the scrambler degree n; the
        period-(2**n - 1) scrambler is extended cyclically by one chip to
        cover the last position.  Scrambling by a common +/-1 sequence
        preserves the exact zero-offset orthogonality of the rows.
        """
        L = 1 << scrambler.n
        if isinstance(rows, int):
            if rows < 1 or rows > L:
                raise ValueError(f"row count must be in [1, {L}], got {rows}")
            row_ids = np.arange(rows)
        else:
            row_ids = np.asarray(rows, dtype=np.int64)
            if row_ids.size < 1 or row_ids.min() < 0 or row_ids.max() >= L:
                raise ValueError(f"row indices must lie in [0, {L - 1}]")
            if np.unique(row_ids).size != row_ids.size:
                raise ValueError("row indices must be distinct")
        k = np.arange(L, dtype=np.int64)
        walsh = 1 - 2 * _parity(row_ids[:, None] & k[None, :]).astype(np.int16)
        scramble = np.concatenate([scrambler.chips, scrambler.chips[:1]]).astype(np.int16)
        signals = (walsh * scramble[None, :]).astype(np.int8)
        return cls(signals, chip_duration, cell_id, kind="walsh")

    @classmethod
    def cyclic_shifts(cls, sequence: MSequence, shifts: int | list[int] | tuple[int, ...],
                      chip_duration: float = 1.0, cell_id: int = 0) -> "SignalEnsemble":
        """Cyclic shifts of one m-sequence (near-orthogonal: R = -1 off-peak).

        An integer ``shifts`` selects that many shifts spread evenly over
        the period; an explicit list selects exact shift values.
        """
        N = sequence.period
        if isinstance(shifts, int):
            if shifts < 1 or shifts > N:
                raise ValueError(f"shift count must be in [1, {N}], got {shifts}")
            shift_vals = [(i * N) // shifts for i in range(shifts)]
        else:
            shift_vals = [int(s) % N for s in shifts]
            if len(set(shift_vals)) != len(shift_vals):
                raise ValueError("shifts must be distinct modulo the period")
        signals = np.stack([np.roll(sequence.chips, s) for s in shift_vals])
        return cls(signals, chip_duration, cell_id, kind="cyclic_shifts")

    def zero_offset_gram(self) -> np.ndarray:
        """Exact integer correlation matrix at zero offset (for checks)."""
        s = self.signals.astype(np.int64)
        return s @ s.T


@dataclass(frozen=True)
class InterferingCell:
    """An interfering cell as seen by the reference receiver."""

    ensemble: SignalEnsemble
    weight: float = 1.0  # received amplitude relative to the reference cell

    def __post_init__(self) -> None:
        if not (self.weight >= 0.0 and math.isfinite(self.weight)):
            raise ValueError(f"weight must be finite and >= 0, got {self.weight!r}")


@dataclass(frozen=True)
class CellLayout:
    """Reference cell plus interfering cells on a common chip grid."""

    reference: SignalEnsemble
    interferers: tuple[InterferingCell, ...]

    def __post_init__(self) -> None:
        for cell in self.interferers:
            e = cell.ensemble
            if e.n_chips != self.reference.n_chips:
                raise ValueError("all cells must share the chip count of the reference")
            if e.chip_duration != self.reference.chip_duration:
                raise ValueError("all cells must share the chip duration of the reference")


@dataclass(frozen=True)
class InterferenceEstimate:
    power: float
    std_error: float
    trials: int


def cross_correlation(ref_chips: np.ndarray, sig_chips: np.ndarray,
                      timing_offset_chips: float = 0.0,
                      phase_offset_rad: float = 0.0) -> float:
    """Normalised correlation of ref against a shifted, rotated interferer.

    K = cos(phase) / L * sum_k ref[k] * sig_shifted[k], where the
    interferer is cyclically delayed by ``timing_offset_chips`` (linear
    interpolation between the two adjacent integer lags).  This is the
    reference implementation the fast estimator paths must agree with.
    """
    ref = np.asarray(ref_chips, dtype=np.float64)
    sig = np.asarray(sig_chips, dtype=np.float64)
    if ref.shape != sig.shape or ref.ndim != 1:
        raise ValueError("ref and sig must be 1-D arrays of equal length")
    L = ref.size
    d = math.floor(timing_offset_chips)
    f = timing_offset_chips - d
    shifted = (1.0 - f) * np.roll(sig, -d) + f * np.roll(sig, -(d + 1))
    return math.cos(phase_offset_rad) * float(np.dot(ref, shifted)) / L


# SeedSequence's hash (numpy/random/bit_generator.pyx) and PCG64's seeding
# (pcg64.h, O'Neill 2014), used to seed every trial's child in bulk.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _child_state_words(seed: int, trials: int) -> list[np.ndarray]:
    """``generate_state(8, uint32)`` of SeedSequence(seed, spawn_key=(t,)), t < trials.

    One uint32 array per output word, one entry per trial: the
    mix_entropy/generate_state hash run on all children at once.  The
    seed words are zero-padded to the pool size and the spawn key t is
    the last entropy word, exactly as SeedSequence assembles a child.
    """
    words = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(trials, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(trials, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _M32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(e) for e in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(e))

    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _M32
        value = value * np.uint32(hash_const)
        out.append(value ^ (value >> _XSHIFT))
    return out


def _child_pcg64_states(seed: int, trials: int) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence(seed).spawn(trials)[t]) for every t.

    ``spawn`` gives child t the spawn key (t,).  PCG64 reads
    generate_state(4, uint64) as little-endian word pairs: initstate
    from the first two, the stream from the last two, then
    inc = (stream << 1) | 1 and state = (inc + initstate) * MULT + inc.
    The first and last trial are recomputed by NumPy as a certificate.
    """
    w = _child_state_words(seed, trials)
    w64 = [(w[2 * k].astype(np.uint64) | (w[2 * k + 1].astype(np.uint64) << np.uint64(32)))
           .tolist() for k in range(4)]
    states = []
    for a, b, c, d in zip(*w64):
        inc = ((c << 64 | d) << 1 | 1) & _M128
        states.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & _M128, inc))
    for t in {0, trials - 1}:
        expect = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(t,))).state["state"]
        if expect != {"state": states[t][0], "inc": states[t][1]}:
            raise RuntimeError(f"bulk PCG64 seeding disagrees with NumPy at seed={seed}, "
                               f"trial {t}; the error draws cannot be trusted")
    return states


def _draw_errors(seed: int, trials: int, widths: list[int]):
    """Per-trial child-seeded draws: (timing z, phase y, lag u) per block.

    ``widths`` gives the number of interfering signals per block (one
    block per cell); each trial consumes its draws block by block (w
    normals for z, w for y, w uniforms for u), so a given (seed, layout)
    always sees the same numbers regardless of how the estimate is
    assembled.  The two normal draws of a block are one ziggurat draw of
    width 2w; one generator is reseeded per trial through its public
    state.
    """
    states = _child_pcg64_states(seed, trials)
    gen = np.random.Generator(np.random.PCG64())
    bitgen = gen.bit_generator
    inner = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    spans = []
    z_cols, y_cols, u_cols = [], [], []
    pos = 0
    for w in widths:
        spans.append((pos, pos + 2 * w, pos + 3 * w))
        z_cols += range(pos, pos + w)
        y_cols += range(pos + w, pos + 2 * w)
        u_cols += range(pos + 2 * w, pos + 3 * w)
        pos += 3 * w
    buf = np.empty((trials, pos))
    for row, (inner["state"], inner["inc"]) in zip(buf, states):
        bitgen.state = state
        for a, b, c in spans:
            gen.standard_normal(out=row[a:b])
            gen.random(out=row[b:c])
    return (np.take(buf, z_cols, axis=1), np.take(buf, y_cols, axis=1),
            np.take(buf, u_cols, axis=1))


def _draw_once(seed: int, trials: int):
    """``_draw_errors`` for one (seed, trials), drawn once per distinct widths."""
    cache = {}

    def draw(widths):
        key = tuple(widths)
        if key not in cache:
            cache[key] = _draw_errors(seed, trials, list(key))
        return cache[key]
    return draw


def _lag_corr(ref: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """All-lag cyclic correlations, out[j, d] = sum_k ref[k] signals[j, (k+d) % L].

    Chips are +/-1, so every entry is an integer of magnitude <= L; the
    FFT product is rounded back to it, which makes the table exact.
    Rows are transformed one signal at a time to keep peak memory flat
    at long periods.
    """
    L = ref.size
    fr = np.conj(np.fft.rfft(ref.astype(np.float64)))
    out = np.empty((signals.shape[0], L))
    for j, sig in enumerate(signals):
        out[j] = np.rint(np.fft.irfft(fr * np.fft.rfft(sig.astype(np.float64)), L))
    return out


def _check_trials(trials: int) -> None:
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _pooled_estimate(ksq_blocks: list[np.ndarray], weights: list[float], T: float,
                     trials: int) -> InterferenceEstimate:
    """Combine per-source squared correlations into the summed power."""
    contributions = []
    variances = []
    for ksq, w in zip(ksq_blocks, weights):
        flat = ksq.ravel()
        mean = math.fsum(flat.tolist()) / flat.size
        if mean > 0.0:
            rms = math.sqrt(mean)
            var_mean = float(np.var(flat, ddof=1)) / flat.size if flat.size > 1 else 0.0
            se_rms = math.sqrt(var_mean) / (2.0 * rms)
            contributions.append(w * rms / T)
            variances.append((w * se_rms / T) ** 2)
        else:
            contributions.append(0.0)
            variances.append(0.0)
    return InterferenceEstimate(
        power=math.fsum(contributions),
        std_error=math.sqrt(math.fsum(variances)),
        trials=trials,
    )


def _ksq_for_block(table: np.ndarray, z: np.ndarray, y: np.ndarray, u: np.ndarray,
                   errors: SyncErrorModel, random_lag: bool) -> np.ndarray:
    """Squared normalised correlations, one per (trial, signal).

    ``table`` is the ``_lag_corr`` table, one row per column of the
    draws.  Timing offsets are split into integer lag plus fractional
    chip; the correlation at fractional offsets is the linear
    interpolation of the exact integer-lag correlation function, as in
    ``cross_correlation``.
    """
    L = table.shape[1]
    offs = errors.timing_std_chips * z
    if random_lag:
        offs = offs + np.floor(u * L)
    d = np.floor(offs)
    f = offs - d
    d_int = d.astype(np.int64) % L
    d_next = (d_int + 1) % L
    cols = np.arange(table.shape[0])
    k = ((1.0 - f) * table[cols, d_int] + f * table[cols, d_next]) / L
    if errors.phase_std_rad != 0.0:
        k = np.cos(errors.phase_std_rad * y) * k
    return k * k


def _intra_table(ensemble: SignalEnsemble, ref_index: int) -> np.ndarray:
    """Lag table of the reference row against the cell's other rows."""
    if not (0 <= ref_index < ensemble.n_signals):
        raise ValueError(f"ref_index {ref_index} out of range")
    others = np.delete(ensemble.signals, ref_index, axis=0)
    return _lag_corr(ensemble.signals[ref_index], others)


def _intra_power(table: np.ndarray, errors: SyncErrorModel, draw, T: float,
                 trials: int) -> InterferenceEstimate:
    """Intra-cell power from its lag table; ``draw(widths)`` supplies the errors."""
    count, L = table.shape
    if count == 0:
        return InterferenceEstimate(power=0.0, std_error=0.0, trials=trials)
    if errors.is_zero:
        power = math.fsum(abs(r0) / L / T for r0 in table[:, 0].tolist())
        return InterferenceEstimate(power=power, std_error=0.0, trials=trials)
    z, y, u = draw([count])
    ksq = _ksq_for_block(table, z, y, u, errors, random_lag=False)
    return _pooled_estimate([ksq[:, j:j + 1] for j in range(count)], [1.0] * count, T, trials)


def _inter_terms(layout: CellLayout, ref_index: int):
    """(lag table over all interfering signals, signals per cell, cell weights)."""
    ref_ens = layout.reference
    if not (0 <= ref_index < ref_ens.n_signals):
        raise ValueError(f"ref_index {ref_index} out of range")
    widths = [cell.ensemble.n_signals for cell in layout.interferers]
    weights = [cell.weight for cell in layout.interferers]
    if not widths:
        return np.empty((0, ref_ens.n_chips)), widths, weights
    signals = np.concatenate([cell.ensemble.signals for cell in layout.interferers])
    return _lag_corr(ref_ens.signals[ref_index], signals), widths, weights


def _inter_power(table: np.ndarray, widths: list[int], weights: list[float],
                 errors: SyncErrorModel, draw, T: float, trials: int) -> InterferenceEstimate:
    """Inter-cell power from ``_inter_terms``; ``draw(widths)`` supplies the errors."""
    if not widths:
        return InterferenceEstimate(power=0.0, std_error=0.0, trials=trials)
    z, y, u = draw(widths)
    ksq = _ksq_for_block(table, z, y, u, errors, random_lag=True)
    blocks = np.split(ksq, np.cumsum(widths)[:-1], axis=1)
    return _pooled_estimate(blocks, weights, T, trials)


def intra_cell_interference(ensemble: SignalEnsemble, errors: SyncErrorModel,
                            trials: int, seed: int, ref_index: int = 0) -> InterferenceEstimate:
    """Interference power from the other signals of the receiver's own cell.

    The cell is symbol-synchronous: the only lag is the timing jitter
    itself.  With zero error widths the zero-lag correlations are read
    from the exact integer lag table, so an orthogonal ensemble yields
    exactly 0.0 rather than FFT dust.
    """
    _check_trials(trials)
    _check_seed(seed)
    table = _intra_table(ensemble, ref_index)
    return _intra_power(table, errors, _draw_once(seed, trials), ensemble.symbol_duration,
                        trials)


def inter_cell_interference(layout: CellLayout, errors: SyncErrorModel,
                            trials: int, seed: int, ref_index: int = 0) -> InterferenceEstimate:
    """Interference power from other cells at the reference receiver.

    Cells are mutually unsynchronised: each trial draws a uniform integer
    symbol lag per interfering signal on top of the timing jitter.  Each
    cell contributes weight / T * sqrt(mean K**2) pooled over its signals.
    """
    _check_trials(trials)
    _check_seed(seed)
    table, widths, weights = _inter_terms(layout, ref_index)
    return _inter_power(table, widths, weights, errors, _draw_once(seed, trials),
                        layout.reference.symbol_duration, trials)


@dataclass(frozen=True)
class SurfacePoint:
    timing_std_chips: float
    phase_std_rad: float
    sinr_db: float


@dataclass(frozen=True)
class SurfaceResult:
    points: tuple[SurfacePoint, ...]
    noise_power_db: float
    trials: int
    seed: int


def sinr_surface(timing_grid, phase_grid, *, ensemble: SignalEnsemble | None = None,
                 layout: CellLayout | None = None, noise_power_db: float = -113.101,
                 trials: int = 1000, seed: int = 0, ref_index: int = 0) -> SurfaceResult:
    """SINR (dB) over a grid of error widths, unit received signal power.

    SINR = 1 / (P_intra + P_inter + P_noise) with the noise power given
    in dB relative to the unit signal.  ``ensemble`` enables the
    intra-cell term, ``layout`` the inter-cell term (its reference
    ensemble is used for the intra term when ``ensemble`` is omitted);
    all grid points share one seed, so the surface varies only through
    the error widths.  The errors are drawn and the lag tables built once;
    every point equals the sum of the public per-point estimates exactly.
    """
    if ensemble is None and layout is None:
        raise ValueError("need an ensemble, a layout, or both")
    _check_trials(trials)
    _check_seed(seed)
    intra_ens = ensemble if ensemble is not None else layout.reference
    intra_table = _intra_table(intra_ens, ref_index)
    if layout is not None:
        inter_table, widths, weights = _inter_terms(layout, ref_index)
    draw = _draw_once(seed, trials)
    p_noise = 10.0 ** (noise_power_db / 10.0)
    points = []
    for et in timing_grid:
        for ep in phase_grid:
            errors = SyncErrorModel(timing_std_chips=float(et), phase_std_rad=float(ep))
            p_total = p_noise
            p_total += _intra_power(intra_table, errors, draw, intra_ens.symbol_duration,
                                    trials).power
            if layout is not None:
                p_total += _inter_power(inter_table, widths, weights, errors, draw,
                                        layout.reference.symbol_duration, trials).power
            points.append(SurfacePoint(
                timing_std_chips=float(et),
                phase_std_rad=float(ep),
                sinr_db=-10.0 * math.log10(p_total),
            ))
    return SurfaceResult(points=tuple(points), noise_power_db=noise_power_db,
                         trials=trials, seed=seed)


def degree_interference_sweep(degrees, trials: int, seed: int, signals_per_cell: int = 4,
                              errors: SyncErrorModel | None = None,
                              chip_duration: float = 1.0) -> list[tuple[int, float, float]]:
    """Inter-cell interference versus register length (one interfering cell).

    For each degree n the reference cell uses the table m-sequence and
    the interferer an inequivalent decimation; both cells run
    ``signals_per_cell`` cyclic shifts.  Longer sequences dilute the
    random-lag correlations, so the power falls with n.  Returns rows
    (n, power, std_error); all degrees share the seed and one set of error
    draws (common random numbers), and each row equals the public
    ``inter_cell_interference`` estimate exactly.
    """
    from mchan.msequence import distinct_msequences

    _check_trials(trials)
    _check_seed(seed)
    if errors is None:
        errors = SyncErrorModel()
    draw = _draw_once(seed, trials)
    rows = []
    for n in degrees:
        own, other = distinct_msequences(n, 2)
        ref_ens = SignalEnsemble.cyclic_shifts(own, signals_per_cell, chip_duration,
                                               cell_id=0)
        int_ens = SignalEnsemble.cyclic_shifts(other, signals_per_cell, chip_duration,
                                               cell_id=1)
        layout = CellLayout(reference=ref_ens,
                            interferers=(InterferingCell(ensemble=int_ens, weight=1.0),))
        est = _inter_power(*_inter_terms(layout, 0), errors, draw, ref_ens.symbol_duration,
                           trials)
        rows.append((int(n), est.power, est.std_error))
    return rows
