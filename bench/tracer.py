"""Spans around calls into the cdnsim package, recorded from outside it.

`Tracer.install` rebinds every public function of every cdnsim module, in
every cdnsim namespace that holds it, to a wrapper that records a span: name,
parent, start and end. Methods stay unwrapped, so per-request work such as
`OnlineCache.access` costs nothing extra. A function that does not exist
yields no span. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter
from contextlib import contextmanager

POLICIES = ("LRU", "LRU2", "LFU", "LIRS", "BELADY")


def _on_dragoon(tracer, args, result):
    tracer.counts["placement.moves"] += len(result[2])


def _on_greedy(tracer, args, result):
    log = result[2]
    tracer.counts["assignment.greedy_rounds"] += len(log)
    tracer.counts["assignment.proposals"] += sum(b.moves_proposed for b in log)
    tracer.counts["assignment.batches_accepted"] += sum(bool(b.accepted) for b in log)


def _on_front_sweep(tracer, args, result):
    tracer.counts["pareto.front_points"] += len(result)


def _on_run(tracer, args, result):
    tracer.counts["simulation.requests"] += result.overall.requests
    tracer.runs.append((args[0], result))


# Work counts read from return values, keyed by span name.
HOOKS = {
    "placement.dragoon": _on_dragoon,
    "assignment.greedy_correlation": _on_greedy,
    "pareto.front_sweep": _on_front_sweep,
    "simulation.run": _on_run,
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.functions: dict[str, object] = {}
        for info in pkgutil.iter_modules(package.__path__):
            if info.name == "__main__":  # importing it would run the CLI
                continue
            module = importlib.import_module(f"{package.__name__}.{info.name}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self.functions[f"{info.name}.{attr}"] = obj
        self._bound: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.runs: list[tuple[object, object]] = []  # (scenario, result) of each run()
        self.hook_errors: Counter[str] = Counter()
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end)
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, IndexError, TypeError, KeyError):
                    self.hook_errors[name] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        self.reset()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.functions.items()}
        prefix = self.package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package.__name__
                                      or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:  # the originals stay alive, so ids are unique
                    setattr(module, attr, wrappers[id(obj)])
                    self._bound.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself, such as a command's root."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (name, parent, start, end)


class SpanSummary:
    """Calls, inclusive and self time per span name; self time per layer.

    A span's self time is its duration minus its child spans. `overruns`
    lists spans whose children add up to more than the span itself.
    """

    def __init__(self, spans: list[tuple[str, int, int, int]]):
        child_ns = [0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.layer_self_ns: Counter[str] = Counter()
        self.roots: list[tuple[str, int]] = []
        self.overruns: list[str] = []
        for (name, parent, start, end), children in zip(spans, child_ns):
            duration = end - start
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration - children
            self.layer_self_ns[name.split(".")[0]] += duration - children
            if parent < 0:
                self.roots.append((name, duration))
            if children > duration:
                self.overruns.append(name)

    def seconds(self, name: str) -> float:
        return self.total_ns[name] / 1e9


def replay_runs(cdnsim, runs) -> tuple[dict[str, dict[str, float]], list[str]]:
    """Replay each captured run's per-server streams through `cache.replay`.

    Streams are rebuilt with the public `generate_requests` and interleaved
    round-robin over users in node-id order, as the simulation documents.
    Returns per-policy totals (seconds, requests, misses) and one message per
    run whose replay does not match its per-server statistics hit for hit.
    """
    totals = {p: {"seconds": 0.0, "requests": 0, "misses": 0} for p in POLICIES}
    mismatches = []
    for scenario, result in runs:
        users = sorted(scenario.users, key=lambda u: u.node)
        streams = {u.node: cdnsim.generate_requests(u, scenario.master_seed,
                                                    scenario.requests_per_user)
                   for u in users}
        per_server = {s: [] for s in scenario.placement}
        for r in range(scenario.requests_per_user):
            for u in users:
                per_server[scenario.assignment[u.node]].append(streams[u.node][r])
        policy = scenario.cache.policy
        total = totals.setdefault(policy, {"seconds": 0.0, "requests": 0, "misses": 0})
        bad = []
        for server in sorted(per_server):
            start = time.perf_counter()
            stats = cdnsim.replay(per_server[server], scenario.cache)
            total["seconds"] += time.perf_counter() - start
            total["requests"] += stats.requests
            total["misses"] += stats.misses
            want = result.per_server[server]
            got = (stats.requests, stats.hits, stats.misses, stats.cold_misses)
            if got != (want.requests, want.hits, want.misses, want.cold_misses):
                bad.append(f"{server}: replay {got} != run {want}")
        if bad:
            mismatches.append(f"{policy} C={scenario.cache.capacity}: {'; '.join(bad)}")
    return totals, mismatches


def layer_metrics(summary: SpanSummary, counts: Counter, cache: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass, before units are attached."""
    s, c = summary.seconds, summary.calls
    rounds = counts["assignment.greedy_rounds"]
    m = {
        "topology.parse_s": s("topology.parse_topology"),
        "topology.apsp_s": s("topology.all_pairs_shortest_paths"),
        "topology.apsp_calls": c["topology.all_pairs_shortest_paths"],
        "profiles.midranks_s": s("profiles.midranks_descending"),
        "profiles.midranks_calls": c["profiles.midranks_descending"],
        "profiles.spearman_s": s("profiles.spearman"),
        "profiles.spearman_calls": c["profiles.spearman"],
        "profiles.generate_users_s": s("profiles.generate_users"),
        "rng.weighted_sample_s": s("rng.weighted_sample_without_replacement"),
        "placement.dragoon_s": s("placement.dragoon"),
        "placement.dragoon_calls": c["placement.dragoon"],
        "placement.moves": counts["placement.moves"],
        "placement.one_center_s": s("placement.one_center"),
        "assignment.proposal_set_s": s("assignment.proposal_set"),
        "assignment.proposal_set_calls": c["assignment.proposal_set"],
        "assignment.total_correlation_s": s("assignment.total_correlation"),
        "assignment.total_correlation_calls": c["assignment.total_correlation"],
        "assignment.greedy_s": s("assignment.greedy_correlation"),
        "assignment.greedy_rounds": rounds,
        "assignment.proposals": counts["assignment.proposals"],
        "assignment.batches_accepted": counts["assignment.batches_accepted"],
        "assignment.batch_accept_ratio":
            counts["assignment.batches_accepted"] / rounds if rounds else 0.0,
        "assignment.relocate_s": s("assignment.relocate_servers"),
        "pareto.front_sweep_s": s("pareto.front_sweep"),
        "pareto.front_points": counts["pareto.front_points"],
        "simulation.run_s": s("simulation.run"),
        "simulation.run_calls": c["simulation.run"],
        "simulation.requests": counts["simulation.requests"],
        "simulation.generate_requests_s": s("simulation.generate_requests"),
    }
    for layer in ("topology", "profiles", "rng", "placement", "assignment", "pareto",
                  "simulation", "cache", "cli"):
        m[f"{layer}.self_s"] = summary.layer_self_ns[layer] / 1e9
    for command in ("place", "assign", "simulate", "pareto"):
        m[f"cli.{command}_s"] = sum(d for n, d in summary.roots if n == f"cli.{command}") / 1e9
    for policy in POLICIES:
        t = cache[policy]
        m[f"cache.{policy}.replay_s"] = t["seconds"]
        m[f"cache.{policy}.requests"] = t["requests"]
        m[f"cache.{policy}.ns_per_request"] = (t["seconds"] * 1e9 / t["requests"]
                                               if t["requests"] else 0.0)
        m[f"cache.{policy}.miss_ratio"] = (t["misses"] / t["requests"]
                                           if t["requests"] else 0.0)
    return m
