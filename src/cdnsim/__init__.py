"""Deterministic CDN mirror-server placement, assignment and cache simulation."""

from .assignment import (
    greedy_correlation,
    optimize,
    relocate_servers,
    total_correlation,
    user_correlations,
)
from .cache import (
    CacheConfig,
    CacheStats,
    belady_misses,
    replay,
)
from .errors import InfeasibleError, ValidationError
from .pareto import ParetoFront, SolutionPoint, dominates, front_sweep, non_dominated
from .placement import (
    Placement,
    PlacementObjective,
    brute_force_placement,
    closest_assignment,
    dragoon,
    farthest_first_init,
    one_center,
)
from .profiles import (
    Profile,
    UserGroup,
    ZipfModel,
    generate_profile,
    generate_users,
    load_trace,
    make_universe,
    spearman,
    zipf_pmf,
)
from .rng import derive_seed, make_rng
from .simulation import (
    Scenario,
    SimulationResult,
    experiment_sweep,
    generate_requests,
    run,
)
from .topology import (
    DistanceMatrix,
    Topology,
    all_pairs_shortest_paths,
    parse_topology,
)

__version__ = "0.1.0"
