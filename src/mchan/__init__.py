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

import importlib

__version__ = "0.1.0"

# Each layer and the names it exports.  They are imported on first access
# (PEP 562), so `import mchan`, and with it every CLI start, loads no layer
# and no numpy until a name from one is used.
_LAZY = {
    "channel": ("ChannelPoint", "ExactCoherentOrthogonal", "SerModel", "UnionBound",
                "capacity_bits_per_symbol", "q_function"),
    "criteria": ("LinkBudget", "NoiseSpec", "cell_radius", "icce", "icie", "icpe",
                 "icpe_joule_forms", "icse"),
    "extremum": ("ExtremumResult", "ExtremumSpec", "GridRange", "InfeasibleSearchError",
                 "maximize_icse", "minimize_icpe", "sweep_curves", "verify_statement1",
                 "verify_statement3"),
    "interference": ("CellLayout", "InterferingCell", "SignalEnsemble", "SyncErrorModel",
                     "inter_cell_interference", "intra_cell_interference", "sinr_surface"),
    "mac": ("MacModel", "SimConfig", "TokenAllocation", "allocate_identifiers",
            "geometric_entropy", "md1_limits", "mm1_limits", "simulate_tdma"),
    "msequence": ("MSequence", "NonPrimitiveTapsError", "distinct_msequences",
                  "generate_msequence", "periodic_autocorrelation"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAZY})
