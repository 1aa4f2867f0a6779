"""Deterministic CDN mirror-server placement, assignment and cache simulation.

Every public name below is imported from its module on first access (PEP 562),
so `import cdnsim` loads no submodule, and no numpy, until a name is read.
"""

import importlib

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "assignment": ("greedy_correlation", "optimize", "relocate_servers", "user_correlations"),
    "cache": ("CacheConfig", "CacheStats", "replay"),
    "errors": ("InfeasibleError", "ValidationError"),
    "pareto": ("ParetoFront", "SolutionPoint", "front_sweep", "non_dominated"),
    "placement": ("Placement", "PlacementObjective", "closest_assignment", "dragoon",
                  "farthest_first_init", "one_center"),
    "profiles": ("Profile", "UserGroup", "ZipfModel", "generate_profile", "generate_users",
                 "load_trace", "make_universe", "zipf_pmf"),
    "rng": ("derive_seed", "make_rng"),
    "simulation": ("Scenario", "SimulationResult", "experiment_sweep", "generate_requests",
                   "run"),
    "topology": ("Topology", "all_pairs_shortest_paths", "parse_topology"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value
