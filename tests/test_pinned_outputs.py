"""Pinned CLI outputs on a weighted, prioritized topology, with and without a trace.

Both benchmark workloads have unit priorities and Zipf-generated users, so
their recorded digests see neither priority weighting nor `--trace`. This
instance has both: 30 nodes with two-decimal edge weights, node priorities
from 0.3 to 2.5 and a request-count trace for 25 of the nodes, all from fixed
seeds. Each command's output files and stdout are compared by SHA-256 with
digests recorded before user groups lost their own priority field, so that
change, and any later one, keeps every byte.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from cdnsim import dragoon, load_trace, parse_topology
from cdnsim.cli import main
from cdnsim.rng import derive_seed, make_rng
from conftest import random_connected_topology

SEED = 32


def weighted_graphml() -> str:
    """30 nodes, weights in [1, 5) and priorities in [0.3, 2.5), two decimals each."""
    topo = random_connected_topology(SEED, 30, weighted=True)
    rng = make_rng(derive_seed(SEED, "priorities"))
    nodes = "".join(
        f'<node id="{n}"><data key="p">{round(float(rng.random()) * 2.2 + 0.3, 2)!r}</data></node>'
        for n in topo.node_ids)
    edges = "".join(f'<edge source="{a}" target="{b}"><data key="w">{w!r}</data></edge>'
                    for a, b, w in topo.edges)
    return ('<?xml version="1.0" encoding="utf-8"?>'
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
            '<key id="p" for="node" attr.name="priority"/>'
            '<key id="w" for="edge" attr.name="weight"/>'
            f'<graph edgedefault="undirected">{nodes}{edges}</graph></graphml>')


def trace_csv() -> str:
    """25 of the 30 nodes, each requesting 2 to 5 of 8 services 1 to 20 times."""
    rng = make_rng(derive_seed(SEED, "trace"))
    nodes = sorted(rng.choice(30, size=25, replace=False).tolist())
    rows = ["node_id,service_id,count"]
    for i in nodes:
        liked = sorted(rng.choice(8, size=int(rng.integers(2, 6)), replace=False).tolist())
        rows += [f"n{i:02d},s{j},{int(rng.integers(1, 21))}" for j in liked]
    return "\n".join(rows) + "\n"


# command -> (argv after the command, output files)
COMMANDS = {
    "place": (["--k", "4"], ["placement.json", "placement_log.csv"]),
    "assign": (["--placement", "{placement}"],
               ["assignment.csv", "assignment_log.csv", "assignment_placement.json"]),
    "simulate": (["--k", "4", "--capacity", "3"], ["simulation.csv"]),
    "sweep": (["--sweep", "server_count", "--values", "2,3,5"], ["simulation.csv"]),
    "pareto": (["--k", "4", "--steps", "6"], ["pareto.csv"]),
}

# (command, source, file) -> SHA-256, recorded before `UserGroup.priority` was removed
PINNED = {
    ("place", "zipf", "stdout"): "1270935c59c922c9ce224a2e16be54a932fe348016122cdd0441bc07f5eedbbf",
    ("place", "zipf", "placement.json"): "d5492aef0291e2cc1619dad6bc306b51459f3d04d6cac7d7185dab8c76d3be72",
    ("place", "zipf", "placement_log.csv"): "c31b02e38bce7c036739f3a9c41082316b9fbe2a8be402275588cbbab7af794e",
    ("place", "trace", "stdout"): "8557db4fa787e7046bb42f44cd4cdbd930577782bfb74101c4c52b09310bc6aa",
    ("place", "trace", "placement.json"): "bfecad063498db0c4ba89d27dce142de2dec60c5d3c543b0dad766f204d99f2c",
    ("place", "trace", "placement_log.csv"): "7dde6dcdd53ded09ce9fc0782dec731dd6d53a384e27ec8a12f0171c70956c35",
    ("assign", "zipf", "stdout"): "aa0d0562e1ec9b92c589006ad70d87095e5a372891d21e11725d6c9c57d99790",
    ("assign", "zipf", "assignment.csv"): "9d950839670960dbc6d3f4465dc9dbbb68ede0c7e77188e90baf044d8f6a6bf0",
    ("assign", "zipf", "assignment_log.csv"): "ceed9bc1e1dd4d33cd430ebc42f0b079e8d3266dd0f9ad86b64598ba5831b3fd",
    ("assign", "zipf", "assignment_placement.json"): "98780f8e5e6517d51ac66d06be7357f5a90d9c6fdd4633d0f79b1c0b12a9045f",
    ("assign", "trace", "stdout"): "41035a1c4910665ba01d0340d7133d6817909b1be4a4100359dfa4417834b831",
    ("assign", "trace", "assignment.csv"): "157d29a34fb44c78042e96b0372bcc76c63ebce6da3ff971e227a36adf181b28",
    ("assign", "trace", "assignment_log.csv"): "4fead7d78903945346c3eb8cdd46f1b6f320033e2b1a01b5fe247f5f8bcca9f6",
    ("assign", "trace", "assignment_placement.json"): "a48de9bbec9b9627b552e7d7584cc162df7ff43f5dd9b07d2cf3d1dbe9c47fa6",
    ("simulate", "zipf", "stdout"): "60f126ea4e78943caa3d1631f03600b98793485ae40bce4b52ac2b754291b6ff",
    ("simulate", "zipf", "simulation.csv"): "55c097deeff9e04d789432b37b7fd6cf89a91f589d01af983f9c4a93dc3d492b",
    ("simulate", "trace", "stdout"): "b0df842b4aa23537c146895a8a578a214ea4da33eba35cd9ab54c7e1be13cd6c",
    ("simulate", "trace", "simulation.csv"): "be556e2619c483df313d827289e46bcce275a7cc65ef82ecf8a58fe696303c61",
    ("sweep", "zipf", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("sweep", "zipf", "simulation.csv"): "1175938a81674175ae51304b9cc1f3bcf9570e0fe4ca29fb3af9a90b8699858f",
    ("sweep", "trace", "stdout"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("sweep", "trace", "simulation.csv"): "a4ed754f0e42561cec24b6c19b021a70bc1f63d3235dd0fdc29bef0e3ce4f964",
    ("pareto", "zipf", "stdout"): "73df876c69cfc8cb1e7e143340c4e95f2f54d27d314dcc3087534eaf5885ab4d",
    ("pareto", "zipf", "pareto.csv"): "8e38d15a26665f385cbfcc73283b03681763ba2d5bc86d0cfcebcc22fbf032b1",
    ("pareto", "trace", "stdout"): "b293c755a8e6cb45f8ba805ec3b842c093190321ea73414ec64643d072984083",
    ("pareto", "trace", "pareto.csv"): "b5b17dcda9b50cab2c087262a5a27d868d63fd52a6f8f7e255fb86f1bf8025a6",
}


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    (root / "topo.graphml").write_text(weighted_graphml())
    (root / "trace.csv").write_text(trace_csv())
    (root / "placement.json").write_text('["n03", "n11", "n17", "n26"]\n')
    return root


def run_cli(root, command, source, capsys):
    argv, files = COMMANDS[command]
    out = root / f"{command}-{source}"
    args = ["simulate" if command == "sweep" else command,
            "--topology", str(root / "topo.graphml"), "--weight-key", "weight",
            "--seed", "7", "--universe", "40", "--profile-size", "6",
            *[a.format(placement=root / "placement.json") for a in argv],
            "--out", str(out)]
    if source == "trace":
        args += ["--trace", str(root / "trace.csv")]
    capsys.readouterr()
    assert main(args) == 0
    outputs = {"stdout": capsys.readouterr().out.encode()}
    outputs.update((name, (out / name).read_bytes()) for name in files)
    return outputs


@pytest.mark.parametrize("source", ["zipf", "trace"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_outputs_match_their_pinned_digests(instance, command, source, capsys):
    outputs = run_cli(instance, command, source, capsys)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == {name: PINNED[command, source, name] for name in outputs}


def test_library_and_cli_weigh_trace_users_alike(instance, capsys):
    """`place --trace` and `dragoon` on `load_trace`'s users give one placement
    and one objective: both weigh a user by its node's GraphML priority."""
    out = run_cli(instance, "place", "trace", capsys)
    topo = parse_topology((instance / "topo.graphml").read_bytes(), weight_key="weight")
    placement, objective, _ = dragoon(topo, load_trace((instance / "trace.csv").read_bytes()), 4)
    assert len(set(topo.priorities.values())) > 1
    stdout = out["stdout"].decode()
    assert json.loads(out["placement.json"]) == list(placement)
    assert re.findall(r"^placement: (.*)$", stdout, re.M) == [" ".join(placement)]
    assert re.findall(r"^objective: (.*)$", stdout, re.M) == [
        f"max_dist={objective.max_dist} avg_dist={objective.avg_dist}"]
