"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the informational ratios.
"""

import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cdnsim import (
    CacheConfig,
    Profile,
    Scenario,
    Topology,
    UserGroup,
    belady_misses,
    brute_force_placement,
    closest_assignment,
    dominates,
    dragoon,
    front_sweep,
    greedy_correlation,
    make_universe,
    non_dominated,
    relocate_servers,
    replay,
    run,
    spearman,
    total_correlation,
    zipf_pmf,
)
from cdnsim.pareto import SolutionPoint
from cdnsim.rng import derive_seed, make_rng, shuffled, weighted_sample_without_replacement
from conftest import random_connected_topology, random_profile, ring_topology


def report(criterion: int, ok: bool, detail: str = ""):
    print(f"\n[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def zipf_trace(seed: int, length: int, universe: int, alpha: float = 0.8) -> list[str]:
    rng = make_rng(derive_seed(seed, "acceptance-trace"))
    pmf = zipf_pmf(alpha, universe)
    cdf = np.cumsum(pmf)
    idx = np.minimum(np.searchsorted(cdf, rng.random(length), side="right"), universe - 1)
    return [f"i{i:03d}" for i in idx]


def test_criterion_01_spearman_anchor():
    u1 = Profile.from_dict({"A": 0.5, "B": 0.5, "C": 0.0})
    u2 = Profile.from_dict({"A": 0.3, "B": 0.0, "C": 0.7})
    srv = Profile.from_dict({"A": 0.4, "B": 0.25, "C": 0.35})
    rho1, rho2 = spearman(u1, srv), spearman(u2, srv)
    start = time.perf_counter()
    for _ in range(100):
        spearman(u1, srv)
    per_call = (time.perf_counter() - start) / 100
    ok = abs(rho1 - 0.125) <= 1e-9 and abs(rho2 - 0.5) <= 1e-9 and per_call < 1e-3
    report(1, ok, f"rho1={rho1} rho2={rho2} per_call={per_call * 1e6:.1f}us")


def test_criterion_02_placement_optimality_ratio():
    start = time.monotonic()
    profile = Profile.from_dict({"x": 1.0}, ("x", "y"))
    cases = optimal = 0
    worst = 0.0
    for seed in range(70):
        n = 4 + seed % 9
        topo = random_connected_topology(seed, n, weighted=(seed % 2 == 0))
        dm = topo.distance_matrix()
        users = [UserGroup(node=i, profile=profile) for i in topo.node_ids]
        for k in (1, 2, 3):
            _, obj, _ = dragoon(dm, topo, users, k)
            _, opt = brute_force_placement(dm, users, k)
            cases += 1
            assert obj.max_dist <= 2 * opt.max_dist + 1e-12, (seed, n, k)
            if abs(obj.max_dist - opt.max_dist) <= 1e-12:
                optimal += 1
            if opt.max_dist > 0:
                worst = max(worst, obj.max_dist / opt.max_dist)
    elapsed = time.monotonic() - start
    ok = cases >= 200 and elapsed < 60
    report(2, ok, f"{cases} cases all within 2x; optimal {optimal}/{cases}"
                  f" ({optimal / cases:.1%}); worst ratio {worst:.3f}; {elapsed:.1f}s")


def test_criterion_03_belady_dominance():
    start = time.monotonic()
    violations = 0
    checks = 0
    for seed in range(100):
        trace = zipf_trace(seed, 1000, 30)
        for capacity in (2, 5, 10):
            optimal = belady_misses(trace, capacity)
            for policy in ("LRU", "LRU2", "LFU", "LIRS"):
                online = replay(trace, CacheConfig(capacity, policy))
                checks += 1
                if optimal.misses > online.misses:
                    violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 30
    report(3, ok, f"{checks} policy/capacity/trace checks, {violations} violations;"
                  f" {elapsed:.1f}s")


def test_criterion_04_stack_monotonicity():
    fixtures = [zipf_trace(s, 600, 25) for s in range(4)]
    fixtures.append(list("abcdef") * 40)          # cyclic scan
    fixtures.append((list("ab") * 50) + list("cdefgh") * 10)  # phase change
    bad = []
    for fi, trace in enumerate(fixtures):
        for policy in ("LRU", "BELADY"):
            misses = [replay(trace, CacheConfig(c, policy)).misses
                      for c in range(1, 21)]
            if any(misses[i] < misses[i + 1] for i in range(len(misses) - 1)):
                bad.append((fi, policy))
    report(4, not bad, f"{len(fixtures)} fixture traces x C=1..20; violations: {bad}")


def _clustered_scenario(seed: int) -> Scenario:
    """Five fixed servers, each serving five users with a shared 15-service
    support drawn from a 100-service Zipf(0.3) universe."""
    universe = make_universe(100)
    global_pmf = zipf_pmf(0.3, 100)
    within = zipf_pmf(0.3, 15)
    nodes, edges, users, assignment, placement = [("hub", 1.0)], [], [], {}, []
    for c in range(5):
        server = f"c{c}srv"
        nodes.append((server, 1.0))
        edges.append(("hub", server, 1.0))
        placement.append(server)
        rng_c = make_rng(derive_seed(seed, "cluster-support", c))
        support = weighted_sample_without_replacement(rng_c, global_pmf.tolist(), 15)
        for m in range(5):
            node = f"c{c}u{m}"
            nodes.append((node, 1.0))
            edges.append((server, node, 1.0))
            order = shuffled(make_rng(derive_seed(seed, "member", c, m)), support)
            probs = np.zeros(100)
            probs[order] = within
            users.append(UserGroup(node=node,
                                   profile=Profile(universe, probs / probs.sum())))
            assignment[node] = server
    return Scenario(
        topology=Topology(nodes, edges),
        users=users,
        placement=tuple(sorted(placement)),
        assignment=assignment,
        cache=CacheConfig(12, "BELADY"),
        origin="hub",
        master_seed=seed,
        requests_per_user=100,
    )


def test_criterion_05_experiment3_shape():
    from cdnsim import experiment_sweep

    scenario = _clustered_scenario(2026)
    table = experiment_sweep(scenario, "cache_size", [2, 12, 20])
    miss = {v: r.miss_ratio for v, r in table}
    steep = miss[2] - miss[12]
    tail = miss[20] - miss[12]
    ok = steep > 0.10 and tail < 0.01
    report(5, ok, f"miss(C=2)={miss[2]:.3f} miss(C=12)={miss[12]:.3f}"
                  f" miss(C=20)={miss[20]:.3f}; steep decline {steep:.3f} (>0.10),"
                  f" tail delta {tail:.3f} (<0.01)")


TWO_CLUSTER_PATTERN = (0, 1, 0, 1, 1, 0, 1, 0, 0, 1)


def _two_cluster_users(seed: int, profile_size: int = 10):
    universe = make_universe(2 * profile_size)
    base = zipf_pmf(0.8, profile_size)
    users = []
    for i, cluster in enumerate(TWO_CLUSTER_PATTERN):
        support = (list(range(profile_size)) if cluster == 0
                   else list(range(profile_size, 2 * profile_size)))
        order = shuffled(make_rng(derive_seed(seed, "cluster-profile", i)), support)
        probs = np.zeros(2 * profile_size)
        probs[order] = base
        users.append(UserGroup(node=f"n{i:02d}",
                               profile=Profile(universe, probs / probs.sum())))
    return users


def test_criterion_06_experiment2_direction():
    ratios = []
    for seed in range(10):
        topo = ring_topology(len(TWO_CLUSTER_PATTERN))
        users = _two_cluster_users(seed)
        dm = topo.distance_matrix()
        placement, _, _ = dragoon(dm, topo, users, 2)
        a_dist = closest_assignment(dm, users, placement)
        cache = CacheConfig(capacity=6, policy="BELADY")  # C=6 < U=10

        def scenario(p, a):
            return Scenario(topology=topo, users=users, placement=p, assignment=a,
                            cache=cache, origin=topo.node_ids[0], master_seed=seed,
                            requests_per_user=100)

        miss_dist = run(scenario(placement, a_dist)).miss_ratio
        a_corr, _, _ = greedy_correlation(users, placement, a_dist)
        p_corr, a_corr = relocate_servers(dm, users, placement, a_corr)
        miss_corr = run(scenario(p_corr, a_corr)).miss_ratio
        ratios.append(miss_corr / miss_dist)
    mean_ratio = float(np.mean(ratios))
    ok = mean_ratio <= 0.6
    report(6, ok, f"mean corr/dist miss-ratio over 10 seeds = {mean_ratio:.3f}"
                  f" (<= 0.6); per-seed max {max(ratios):.3f}")


def _fuzz_instance(seed: int):
    rng = make_rng(derive_seed(seed, "fuzz"))
    n_users = int(rng.integers(4, 9))
    n_services = int(rng.integers(6, 11))
    universe = make_universe(n_services)
    ids = [f"n{i:02d}" for i in range(n_users)]
    topo = Topology([(i, 1.0) for i in ids],
                    [(ids[i], ids[i + 1], 1.0) for i in range(n_users - 1)])
    users = []
    planted = seed % 2 == 0
    for i in range(n_users):
        if planted:
            half = n_services // 2
            cluster = int(rng.integers(2))
            support = list(range(half)) if cluster == 0 else list(range(half, n_services))
            base = zipf_pmf(0.8, len(support))
            order = shuffled(rng, support)
            probs = np.zeros(n_services)
            probs[order] = base + rng.random(len(support)) * 0.02
        else:
            probs = rng.random(n_services) ** 2
        probs = probs / probs.sum()
        users.append(UserGroup(node=ids[i], profile=Profile(universe, probs)))
    if planted:
        servers = (ids[0], ids[-1])
    else:
        servers = tuple(sorted({ids[0], ids[-1], ids[n_users // 2]}))
    return topo, users, servers


def test_criterion_07_greedy_termination_and_quality():
    exhaustive_cases = exhaustive_matches = 0
    for seed in range(500):
        topo, users, servers = _fuzz_instance(seed)
        dm = topo.distance_matrix()
        a0 = closest_assignment(dm, users, servers)
        a, total_corr, log = greedy_correlation(users, servers, a0)
        assert len(log) <= 100, f"instance {seed} ran {len(log)} iterations"
        for rec in log:
            if rec.accepted:
                assert rec.total_corr_after > rec.total_corr_before, seed
        if len(servers) == 2 and len(users) <= 8:
            best = -np.inf
            for combo in itertools.product(servers, repeat=len(users)):
                trial = {u.node: s for u, s in zip(users, combo)}
                best = max(best, total_correlation(users, trial))
            exhaustive_cases += 1
            if total_corr >= best - 1e-9:
                exhaustive_matches += 1
    ratio = exhaustive_matches / exhaustive_cases
    ok = ratio >= 0.80
    report(7, ok, f"500 instances terminated <= 100 iterations;"
                  f" exhaustive match {exhaustive_matches}/{exhaustive_cases}"
                  f" = {ratio:.1%} (>= 80%)")


def test_criterion_08_pareto_correctness():
    def quadratic(points):
        kept, seen = [], set()
        for p in points:
            if any(dominates(q, p) for q in points):
                continue
            key = (p.avg_dist, p.total_corr)
            if key not in seen:
                seen.add(key)
                kept.append(p)
        return sorted(kept, key=lambda p: p.avg_dist)

    for seed in range(1000):
        rng = make_rng(derive_seed(seed, "pareto-points"))
        pts = [
            SolutionPoint(placement=("a",), assignment=(), step=i,
                          avg_dist=float(rng.integers(0, 15)),
                          total_corr=float(rng.integers(0, 15)),
                          max_dist=0.0)
            for i in range(int(rng.integers(2, 40)))
        ]
        got = [(p.avg_dist, p.total_corr) for p in non_dominated(pts)]
        want = [(p.avg_dist, p.total_corr) for p in quadratic(pts)]
        assert got == want, f"seed {seed}"

    dominated_pairs = 0
    for seed in range(20):
        topo = random_connected_topology(seed, 9)
        universe = make_universe(8)
        users = [UserGroup(node=n, profile=random_profile(seed * 100 + i, universe))
                 for i, n in enumerate(topo.node_ids)]
        scenario = Scenario(topology=topo, users=users,
                            placement=(topo.node_ids[0],),
                            assignment={u.node: topo.node_ids[0] for u in users},
                            cache=CacheConfig(3, "LRU"), origin=topo.node_ids[0],
                            master_seed=seed, requests_per_user=100)
        front = front_sweep(scenario.topology, scenario.users, 2, 15, scenario.master_seed)
        for a, b in itertools.permutations(front, 2):
            if dominates(a, b):
                dominated_pairs += 1
    ok = dominated_pairs == 0
    report(8, ok, f"1000 point sets match the quadratic filter;"
                  f" {dominated_pairs} dominated pairs across 20 sweeps")


GRAPHML_RING = None


def _write_fixture_topology(tmp_path: Path) -> Path:
    topo = random_connected_topology(77, 15)
    nodes = "".join(f'<node id="{n}"/>' for n in topo.node_ids)
    edges = "".join(f'<edge source="{a}" target="{b}"/>' for a, b, _ in topo.edges)
    doc = ('<?xml version="1.0" encoding="utf-8"?>'
           '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
           f'<graph edgedefault="undirected">{nodes}{edges}</graph></graphml>')
    path = tmp_path / "fixture.graphml"
    path.write_text(doc)
    return path


def test_criterion_09_cli_determinism(tmp_path):
    topo_path = _write_fixture_topology(tmp_path)
    commands = {
        "place": ["place", "--k", "3"],
        "assign": None,  # filled in after place created a placement file
        "simulate": ["simulate", "--k", "3", "--sweep", "cache_size",
                     "--values", "1,3,6", "--policy", "BELADY"],
        "pareto": ["pareto", "--k", "3", "--steps", "12"],
    }
    common = ["--topology", str(topo_path), "--seed", "31",
              "--universe", "20", "--profile-size", "6"]
    mismatches = []
    for name, argv in commands.items():
        outputs = []
        for attempt in ("one", "two"):
            out = tmp_path / f"{name}-{attempt}"
            if name == "assign":
                placement = tmp_path / "place-one" / "placement.json"
                argv = ["assign", "--placement", str(placement)]
            proc = subprocess.run(
                [sys.executable, "-m", "cdnsim", *argv, *common, "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, (name, proc.stderr)
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        if outputs[0] != outputs[1]:
            mismatches.append(name)
    ok = not mismatches
    report(9, ok, f"place/assign/simulate/pareto rerun byte-identical;"
                  f" mismatches: {mismatches}")


def test_criterion_10_desk_scale_performance(tmp_path):
    start = time.monotonic()
    # 124 nodes / 126 edges, the reference infrastructure shape
    rng = make_rng(derive_seed(124, "desk-topo"))
    ids = [f"n{i:03d}" for i in range(124)]
    edges = []
    for i in range(1, 124):
        edges.append((ids[int(rng.integers(0, i))], ids[i], 1.0))
    while len(edges) < 126:
        a, b = int(rng.integers(0, 124)), int(rng.integers(0, 124))
        if a != b:
            edges.append((ids[min(a, b)], ids[max(a, b)], 1.0))
    topo = Topology([(i, 1.0) for i in ids], edges)

    from cdnsim import ZipfModel, generate_users

    users = generate_users(topo, ZipfModel(0.3, 100, 15), master_seed=124)
    dm = topo.distance_matrix()
    placement, _, _ = dragoon(dm, topo, users, 10)                     # place
    a0 = closest_assignment(dm, users, placement)
    a1, _, _ = greedy_correlation(users, placement, a0)                # assign
    p1, a1 = relocate_servers(dm, users, placement, a1)
    scenario = Scenario(topology=topo, users=users, placement=p1, assignment=a1,
                        cache=CacheConfig(10, "LRU"), origin=ids[0],
                        master_seed=124, requests_per_user=100)
    result = run(scenario)                                             # simulate
    front = front_sweep(topo, users, 10, 50, scenario.master_seed)     # pareto
    elapsed = time.monotonic() - start
    ok = elapsed < 60
    report(10, ok, f"full pipeline on 124 nodes, k=10: {elapsed:.1f}s (< 60s);"
                   f" miss_ratio={result.miss_ratio:.3f} front={len(front)} points")
