"""Bad numbers and words from outside are ValidationErrors that name the value.

Each row is one number a caller passes in, checked by `errors._check_int` or
`errors._check_real`. Numbers that have a parametrized test of their own take
the same bad values there: cache capacity (`test_cache.py`), `front_sweep`
steps (`test_pareto.py`), `generate_requests` count and `requests_per_user`
(`test_simulation.py`), node priority and edge weight (`test_topology.py`).
"""

import re

import pytest

from cdnsim import (
    CacheConfig,
    Scenario,
    ValidationError,
    ZipfModel,
    derive_seed,
    dragoon,
    experiment_sweep,
    generate_profile,
    generate_users,
    make_universe,
    optimize,
    zipf_pmf,
)
from cdnsim.errors import OPTIMIZERS, POLICIES, SWEEP_AXES
from conftest import path_topology, uniform_users

PATH = path_topology(["A", "B", "C"])
# a numeric string, as a config file or a form would pass it
BAD_INTS = ["2", None, True, 2.5]
BAD_REALS = ["0.5", None, True, float("nan"), float("inf")]

ROWS = {  # row: (call with the value, message before ", got <value>", bad values)
    "k": (lambda v: dragoon(PATH, uniform_users(PATH), v), "k must be an int", BAD_INTS),
    "universe_size": (lambda v: ZipfModel(universe_size=v, profile_size=1),
                      "universe_size must be an int >= 1", BAD_INTS),
    "profile_size": (lambda v: ZipfModel(universe_size=10, profile_size=v),
                     "profile_size must be an int >= 1", BAD_INTS),
    "derive_seed": (lambda v: derive_seed(v, "profile", "A"), "master seed must be an int",
                    BAD_INTS),
    "generate_users": (lambda v: generate_users(PATH, ZipfModel(0.3, 5, 2), v),
                       "master seed must be an int", BAD_INTS),
    "alpha": (lambda v: ZipfModel(alpha=v), "alpha must be a finite real >= 0", BAD_REALS),
    "zipf_pmf_alpha": (lambda v: zipf_pmf(v, 3), "alpha must be a finite real >= 0", BAD_REALS),
    "zipf_pmf_n": (lambda v: zipf_pmf(0.3, v), "n must be an int >= 1", BAD_INTS),
    "rng_seed": (lambda v: generate_profile(v, make_universe(3), zipf_pmf(0.3, 3),
                                            zipf_pmf(0.3, 2)),
                 "seed must be an int >= 0", [*BAD_INTS, -1]),
}
CASES = [(row, value) for row, (_, _, values) in ROWS.items() for value in values]


@pytest.mark.parametrize("row, value", CASES, ids=[f"{row}-{value!r}" for row, value in CASES])
def test_bad_number_is_a_validation_error(row, value):
    call, message, _ = ROWS[row]
    with pytest.raises(ValidationError, match=re.escape(f"{message}, got {value!r}")):
        call(value)


SCENARIO = Scenario(PATH, uniform_users(PATH), ("B",), dict.fromkeys("ABC", "B"),
                    CacheConfig(1), "A", 0)
WORDS = {  # row: (call with the word, message before the word, the words it takes)
    "policy": (lambda v: CacheConfig(1, v), "unknown policy", POLICIES),
    "optimize": (lambda v: optimize(PATH, uniform_users(PATH), k=1, optimizer=v),
                 "unknown optimizer", OPTIMIZERS),
    "sweep_optimizer": (lambda v: experiment_sweep(SCENARIO, "policy", ["LRU"], optimizer=v),
                        "unknown optimizer", OPTIMIZERS),
    "sweep_axis": (lambda v: experiment_sweep(SCENARIO, v, [1]), "unknown sweep axis",
                   SWEEP_AXES),
}


@pytest.mark.parametrize("row", WORDS)
@pytest.mark.parametrize("value", ["bogus", "lru", None])
def test_bad_word_is_a_validation_error(row, value):
    call, message, words = WORDS[row]
    with pytest.raises(ValidationError,
                       match=re.escape(f"{message} {value!r}; one of {words}") + "$"):
        call(value)
