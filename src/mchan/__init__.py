"""Efficiency criteria for m-ary orthogonal digital channels.

The package is organised around a single pair of invariant coordinates:
the signal-to-interference-plus-noise amplitude ``g`` and the signal base
``B_s = 2 * deltaF_s * T_s``.  Their combination, the energy SINR
``h = g * sqrt(B_s / 2)``, fixes the symbol error rate of a coherent
orthogonal ensemble and therefore every criterion built on top of it.

Modules
-------
channel
    Error-rate models and channel capacity for m-ary ensembles.
criteria
    Spectral, power, energy, and territorial efficiency criteria.
extremum
    Constrained extremum searches over (g, B_s) and statement verifiers.
msequence
    Maximal-length sequences: generation, correlation laws, windows.
interference
    Orthogonality-error interference estimators and SINR surfaces.
mac
    Distributed-MAC overhead limits, TDMA simulator, token allocator.
"""

from mchan.channel import (
    ChannelPoint,
    ExactCoherentOrthogonal,
    SerModel,
    TableSer,
    UnionBound,
    capacity_bits_per_symbol,
    continuous_capacity,
    q_function,
    ser,
)
from mchan.criteria import (
    CriterionValue,
    LinkBudget,
    NoiseSpec,
    cell_radius,
    icce,
    icie,
    icpe,
    icpe_joule_forms,
    icse,
)
from mchan.extremum import (
    ExtremumResult,
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
    SyncErrorModel,
    cross_correlation,
    inter_cell_interference,
    intra_cell_interference,
    sinr_surface,
)
from mchan.mac import (
    MacModel,
    SimConfig,
    TokenAllocation,
    allocate_identifiers,
    geometric_entropy,
    md1_limits,
    mm1_limits,
    simulate_tdma,
)
from mchan.msequence import (
    MSequence,
    NonPrimitiveTapsError,
    distinct_msequences,
    generate_msequence,
    periodic_autocorrelation,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelPoint",
    "ExactCoherentOrthogonal",
    "SerModel",
    "TableSer",
    "UnionBound",
    "capacity_bits_per_symbol",
    "continuous_capacity",
    "q_function",
    "ser",
    "CriterionValue",
    "LinkBudget",
    "NoiseSpec",
    "cell_radius",
    "icce",
    "icie",
    "icpe",
    "icpe_joule_forms",
    "icse",
    "ExtremumResult",
    "ExtremumSpec",
    "GridRange",
    "InfeasibleSearchError",
    "maximize_icse",
    "minimize_icpe",
    "sweep_curves",
    "verify_statement1",
    "verify_statement3",
    "CellLayout",
    "InterferingCell",
    "SignalEnsemble",
    "SyncErrorModel",
    "cross_correlation",
    "inter_cell_interference",
    "intra_cell_interference",
    "sinr_surface",
    "MacModel",
    "SimConfig",
    "TokenAllocation",
    "allocate_identifiers",
    "geometric_entropy",
    "md1_limits",
    "mm1_limits",
    "simulate_tdma",
    "MSequence",
    "NonPrimitiveTapsError",
    "distinct_msequences",
    "generate_msequence",
    "periodic_autocorrelation",
    "__version__",
]
