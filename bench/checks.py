"""Output checks: invariants every correct version of the CLI satisfies.

Each check returns a list of problems; an empty list means the command's
outputs passed. The checks read only the files and stdout a user would see.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

# The headers the README documents for each output file.
HEADERS = {
    "placement_log.csv": ["iteration", "server", "from", "to", "max_dist", "avg_dist"],
    "assignment.csv": ["user_node", "server_node", "rho", "distance"],
    "assignment_log.csv": ["iteration", "moves_proposed", "total_corr_before",
                           "total_corr_after", "accepted"],
    "simulation.csv": ["axis_value", "miss_ratio", "max_dist", "avg_dist",
                       "network_load", "cold_misses"],
    "pareto.csv": ["avg_dist", "total_corr", "max_dist", "miss_ratio", "placement",
                   "seed", "step"],
}

FILES = {
    "validate": (),
    "place": ("placement.json", "placement_log.csv"),
    "assign": ("assignment.csv", "assignment_log.csv", "assignment_placement.json"),
    "simulate": ("simulation.csv",),
    "pareto": ("pareto.csv",),
}

_PLACE_OBJECTIVE = re.compile(r"^objective: max_dist=(\S+)", re.M)
_TOTAL_CORR = re.compile(r"^total_corr: (\S+)", re.M)


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file the command wrote, keyed by file name."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir()) if f.is_file()}


def place_max_dist(stdout: str) -> float:
    return float(_PLACE_OBJECTIVE.search(stdout).group(1))


def assign_total_corr(stdout: str) -> float:
    return float(_TOTAL_CORR.search(stdout).group(1))


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _placement(path: Path, nodes: set[str], k: int, problems: list[str]) -> list[str]:
    servers = json.loads(path.read_text())
    if not isinstance(servers, list) or servers != sorted(servers):
        problems.append(f"{path.name}: not a sorted list")
        return []
    if len(set(servers)) != k or len(servers) != k:
        problems.append(f"{path.name}: {len(servers)} servers, expected {k} distinct")
    if not set(servers) <= nodes:
        problems.append(f"{path.name}: names nodes outside the topology")
    return servers


def check(argv: list[str], out: Path, stdout: str, nodes: set[str]) -> list[str]:
    """Problems found in one command's outputs (argv as given to cdnsim)."""
    command = argv[0]
    problems: list[str] = []
    for name in FILES[command]:
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: missing")
        elif name in HEADERS:
            with path.open(newline="") as fh:
                header = next(csv.reader(fh), None)
            if header != HEADERS[name]:
                problems.append(f"{name}: header {header!r}")
    if problems:
        return problems
    try:
        {"validate": _check_validate, "place": _check_place, "assign": _check_assign,
         "simulate": _check_simulate, "pareto": _check_pareto}[command](
            argv, out, stdout, nodes, problems)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"{command}: unreadable output ({exc!r})")
    return problems


def _check_validate(argv, out, stdout, nodes, problems):
    if f"{len(nodes)} nodes" not in stdout:
        problems.append(f"validate: stdout does not report {len(nodes)} nodes")


def _check_place(argv, out, stdout, nodes, problems):
    _placement(out / "placement.json", nodes, int(_flag(argv, "--k")), problems)
    if not place_max_dist(stdout) > 0:
        problems.append("place: objective max_dist is not positive")


def _check_assign(argv, out, stdout, nodes, problems):
    k = len(json.loads(Path(_flag(argv, "--placement")).read_text()))
    servers = set(_placement(out / "assignment_placement.json", nodes, k, problems))
    rows = read_rows(out / "assignment.csv")
    users = [r["user_node"] for r in rows]
    if sorted(users) != sorted(nodes) or len(set(users)) != len(users):
        problems.append("assignment.csv: does not cover every user exactly once")
    if any(r["server_node"] not in servers for r in rows):
        problems.append("assignment.csv: names a server outside the placement")
    if any(not float(r["distance"]) >= 0 for r in rows):
        problems.append("assignment.csv: negative or NaN distance")
    if not math.isfinite(assign_total_corr(stdout)):
        problems.append("assign: total_corr is not finite")


def _check_simulate(argv, out, stdout, nodes, problems):
    rows = read_rows(out / "simulation.csv")
    axis = _flag(argv, "--sweep")
    values = _flag(argv, "--values").split(",") if axis else ["-"]
    if [r["axis_value"] for r in rows] != values:
        problems.append(f"simulation.csv: axis values {[r['axis_value'] for r in rows]}")
        return
    ratio = {r["axis_value"]: float(r["miss_ratio"]) for r in rows}
    if any(not 0.0 <= m <= 1.0 for m in ratio.values()):
        problems.append("simulation.csv: miss_ratio outside [0, 1]")
    if axis in ("policy", "cache_size"):
        # placement and request streams are fixed along these axes
        for col in ("max_dist", "avg_dist", "cold_misses"):
            if len({r[col] for r in rows}) != 1:
                problems.append(f"simulation.csv: {col} varies along the {axis} axis")
    if axis == "policy" and "BELADY" in ratio:
        if any(ratio["BELADY"] > m for m in ratio.values()):
            problems.append("simulation.csv: BELADY misses more than an online policy")
    if axis == "cache_size" and _flag(argv, "--policy") in ("LRU", "BELADY"):
        by_size = [ratio[v] for v in sorted(values, key=int)]
        if any(b > a for a, b in zip(by_size, by_size[1:])):
            problems.append("simulation.csv: miss ratio rises with capacity")


def _check_pareto(argv, out, stdout, nodes, problems):
    rows = read_rows(out / "pareto.csv")
    if not rows:
        problems.append("pareto.csv: empty front")
        return
    dist = [float(r["avg_dist"]) for r in rows]
    corr = [float(r["total_corr"]) for r in rows]
    if any(b < a for a, b in zip(dist, dist[1:])):
        problems.append("pareto.csv: avg_dist not ascending")
    if any(b <= a for a, b in zip(corr, corr[1:])):
        problems.append("pareto.csv: total_corr not strictly rising")
    k = int(_flag(argv, "--k"))
    steps = int(_flag(argv, "--steps"))
    for r in rows:
        servers = r["placement"].split()
        if len(set(servers)) != k or not set(servers) <= nodes:
            problems.append("pareto.csv: placement is not k distinct topology nodes")
            break
        if r["seed"] != _flag(argv, "--seed") or not 0 <= int(r["step"]) < steps:
            problems.append("pareto.csv: bad seed or step column")
            break
        if r["miss_ratio"] and not 0.0 <= float(r["miss_ratio"]) <= 1.0:
            problems.append("pareto.csv: miss_ratio outside [0, 1]")
            break
