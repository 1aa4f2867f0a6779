#!/usr/bin/env python3
"""Benchmark of the cdnsim CLI, driven exactly as a user drives it.

    python3 bench/run.py --workload desk-pipeline --seed 124 --seconds 55 --trace 0

One client runs the workload's commands one after another, each a fresh
`python -m cdnsim` process on the sources in src/ (a closed loop with one
client). `--trace 0` measures the end-to-end metrics over as many passes of
the command list as fit in `--seconds` (at least two, whose output digests
must agree). `--trace 1` runs one such pass, then two passes of the same argv
in-process with spans around every public cdnsim function, and reports the
per-layer metrics. The last line of stdout is the JSON result. bench/README.md
explains the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from tracer import SpanSummary, Tracer, layer_metrics, replay_runs  # noqa: E402
from workloads import TOPOLOGY_SEED, WORKLOADS, desk_graph, graphml  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0  # the whole run must end within 180 s
SETUP_PER_PASS = 3  # validate runs before each pass and after the last
MIN_PASSES = 2  # the second pass checks that outputs repeat byte for byte
TRACED_PASSES = 2  # the second traced pass checks that counts repeat
# Workloads that run no `assign` report this constant: the key must be present.
NO_ASSIGN_CORR = 1.0

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_req_per_s": "req/s",
    "place_max_dist": "dist",
    "assign_total_corr": "rho",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_request"):
        return "ns"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


@dataclass
class Command:
    argv: list[str]
    out: Path
    wall: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Pass:
    label: str
    commands: list[Command]
    digests: dict[str, dict[str, str]] = field(default_factory=dict)  # per command dir
    failed: set[str] = field(default_factory=set)  # command dirs that failed

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.commands)


class Bench:
    def __init__(self, workload, seed: int, seconds: float):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        ids, edges = desk_graph(TOPOLOGY_SEED)
        self.nodes = set(ids)
        self.topology = self.work / "topology.graphml"
        self.topology.write_text(graphml(ids, edges))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        # an installed package has its bytecode compiled; the warm-up writes it
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, why: str):
        self.failed += 1
        print(f"FAILED {self.wl.name} {what}: {why}", file=sys.stderr)

    def verify(self, name: str, c: Command) -> bool:
        """Count one attempted command; it fails on a non-zero exit or a failed check."""
        self.attempted += 1
        problems = ([f"exit {c.returncode}: {c.stderr.strip()[-300:]}"]
                    if c.returncode != 0 else
                    checks.check(c.argv, c.out, c.stdout, self.nodes))
        if problems:
            self.fail(name, "; ".join(problems))
        return not problems

    def fresh_process(self, argv: list[str], out: Path) -> Command:
        """Run `python -m cdnsim argv` and wait for it, killing it at the deadline."""
        out.mkdir(parents=True, exist_ok=True)
        log = out.parent / out.name
        with open(f"{log}.stdout", "w+b") as so, open(f"{log}.stderr", "w+b") as se:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "cdnsim", *argv], cwd=ROOT,
                                    env=self.env, stdout=so, stderr=se)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            so.seek(0)
            se.seek(0)
            return Command(argv, out, wall, usage.ru_maxrss / 1024, proc.returncode,
                           so.read().decode(), se.read().decode())

    def run_pass(self, label: str, execute) -> Pass:
        """One pass of the workload's commands; outputs are checked afterwards."""
        pass_dir = self.work / label
        placement = ""
        done = []
        for i, command in enumerate(self.wl.commands, 1):
            out = pass_dir / f"{i}-{command[0]}"
            argv = self.wl.argv(command, str(self.topology), self.seed, str(out), placement)
            done.append(execute(argv, out))
            if command[0] == "place":
                placement = str(out / "placement.json")
        result = Pass(label, done)
        for c in done:
            if not self.verify(f"{label}/{c.out.name}", c):
                result.failed.add(c.out.name)
            result.digests[c.out.name] = checks.digests(c.out)
        return result

    def check_repeats(self, passes: list[Pass]):
        """Every pass must write the same bytes as the first (criterion 9)."""
        first = passes[0].digests
        for p in passes[1:]:
            for name, files in p.digests.items():
                if files != first[name] and name not in p.failed:
                    changed = sorted(f for f in files.keys() | first[name].keys()
                                     if files.get(f) != first[name].get(f))
                    self.fail(f"{p.label}/{name}", f"outputs differ from "
                                                   f"{passes[0].label}: {changed}")

    def exact_values(self, p: Pass) -> dict[str, float]:
        """The objectives the pass printed; 0 where a failed command printed none."""
        values = {"place_max_dist": 0.0, "assign_total_corr": NO_ASSIGN_CORR}
        ok = [c for c in p.commands if c.out.name not in p.failed]
        try:
            for c in ok:
                if c.argv[0] == "assign":
                    values["assign_total_corr"] = checks.assign_total_corr(c.stdout)
            place = [c for c in ok if c.argv[0] == "place"]
            if place:
                values["place_max_dist"] = checks.place_max_dist(place[0].stdout)
            else:
                # `simulate --k` with the distance optimizer reports the same objective
                sim = next(c for c in ok if c.argv[0] == "simulate" and "--k" in c.argv
                           and "correlation" not in c.argv)
                values["place_max_dist"] = float(
                    checks.read_rows(sim.out / "simulation.csv")[0]["max_dist"])
        except (AttributeError, StopIteration, IndexError, KeyError, ValueError):
            pass  # the failed command is already counted
        return values

    def print_digests(self, p: Pass):
        with open(self.work / "digests.json", "w") as fh:
            json.dump(p.digests, fh, indent=1, sort_keys=True)
        for name, files in p.digests.items():
            for f, digest in files.items():
                print(f"sha256 {self.wl.name} {name}/{f} {digest}")

    def setup_samples(self, label: str) -> list[float]:
        """Wall times of fresh-process `validate` runs on the workload's topology."""
        walls = []
        for i in range(SETUP_PER_PASS):
            c = self.fresh_process(self.wl.validate_argv(str(self.topology)),
                                   self.work / f"setup-{label}-{i}")
            self.verify(c.out.name, c)
            walls.append(c.wall)
        return walls

    def measure(self) -> dict[str, float]:
        """End-to-end metrics, tracing off."""
        # Set-up is sampled around every pass, so that its median spans the same
        # stretch of host speed drift as the passes do.
        setup: list[float] = []
        passes: list[Pass] = []
        start = time.monotonic()
        while True:
            setup += self.setup_samples(str(len(passes)))
            passes.append(self.run_pass(f"pass{len(passes)}", self.fresh_process))
            print(f"pass {len(passes)}: {passes[-1].wall:.3f} s ("
                  + ", ".join(f"{c.argv[0]} {c.wall:.3f}" for c in passes[-1].commands)
                  + ")", flush=True)
            longest = max(p.wall for p in passes)
            now = time.monotonic()
            if now + longest > self.deadline:
                break
            if len(passes) >= MIN_PASSES and now - start + longest > self.seconds:
                break
        setup += self.setup_samples("last")
        if len(passes) < MIN_PASSES:
            self.fail("passes", "no time left for the second pass")
        self.check_repeats(passes)
        self.print_digests(passes[0])

        # A command's time is its median over the passes, and a pass's time is
        # the sum of those. No command lasts more than a few seconds, so a run
        # holds seven or more samples of each, and their medians repeat across
        # runs far better than the median of a few long passes
        # (bench/README.md, Noise).
        typical = [statistics.median(p.commands[i].wall for p in passes)
                   for i in range(len(self.wl.commands))]
        sims = [i for i, command in enumerate(self.wl.commands) if command[0] == "simulate"]
        requests = sum(self.wl.simulated_requests(self.wl.commands[i], len(self.nodes))
                       for i in sims)
        metrics = {
            "wall_s": sum(typical),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(max(c.rss_mb for c in p.commands)
                                             for p in passes),
            "sim_req_per_s": requests / sum(typical[i] for i in sims),
        }
        metrics.update(self.exact_values(passes[0]))
        return {name: {"value": metrics[name], "unit": UNITS[name]} for name in UNITS}

    def trace(self) -> dict[str, float]:
        """Per-layer metrics: one fresh-process pass, then traced in-process passes."""
        reference = self.run_pass("untraced", self.fresh_process)
        print(f"untraced pass: {reference.wall:.3f} s", flush=True)

        sys.path.insert(0, str(SRC))
        cdnsim = importlib.import_module("cdnsim")
        if SRC not in Path(cdnsim.__file__).resolve().parents:
            raise SystemExit(f"imported cdnsim from {cdnsim.__file__}, not from {SRC}")
        cli = importlib.import_module("cdnsim.cli")
        tracer = Tracer(cdnsim)

        def in_process(argv: list[str], out: Path) -> Command:
            out.mkdir(parents=True, exist_ok=True)
            so, se = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with tracer.span(f"cli.{argv[0]}"), redirect_stdout(so), redirect_stderr(se):
                try:
                    code = cli.main(argv)
                except Exception:  # a crash is a failed command, reported below
                    traceback.print_exc()
                    code = -1
            return Command(argv, out, time.perf_counter() - start, 0.0, code,
                           so.getvalue(), se.getvalue())

        passes, per_pass, counts = [reference], [], []
        for i in range(TRACED_PASSES):
            tracer.install()
            try:
                p = self.run_pass(f"traced{i}", in_process)
            finally:
                tracer.uninstall()
            passes.append(p)
            spans = tracer.spans
            summary = SpanSummary(spans)
            self.attempted += 1
            if summary.overruns:
                self.fail(f"traced{i}", f"child spans exceed their parent: "
                                        f"{sorted(set(summary.overruns))}")
            for name, n in tracer.hook_errors.items():
                print(f"warning: could not read the result of {name} ({n} calls)",
                      file=sys.stderr)
            cache, mismatches = replay_runs(cdnsim, tracer.runs)
            self.attempted += len(tracer.runs)
            for m in mismatches:
                self.fail(f"traced{i} cache replay", m)
            with open(self.work / f"spans-traced{i}.json", "w") as fh:
                json.dump({"fields": ["name", "parent", "start_ns", "end_ns"],
                           "spans": spans}, fh, separators=(",", ":"))
            m = layer_metrics(summary, tracer.counts, cache)
            m["trace.wall_s"] = p.wall
            m["trace.overhead_s"] = p.wall - reference.wall
            m["trace.spans"] = len(spans)
            per_pass.append(m)
            counts.append({**summary.calls, **tracer.counts,
                           **{k: v for k, v in m.items() if k.startswith("cache.")
                              and (k.endswith("requests") or k.endswith("miss_ratio"))}})
            print(f"traced pass {i + 1}: {p.wall:.3f} s, {len(spans)} spans", flush=True)
            self._print_dominant(summary, m, reference.wall)
        self.attempted += 1
        if any(c != counts[0] for c in counts[1:]):
            diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                          if counts[0].get(k) != counts[1].get(k))
            self.fail("traced counts", f"differ between traced passes: {diff[:10]}")
        self.check_repeats(passes)
        self.print_digests(reference)
        return {name: {"value": statistics.median(m[name] for m in per_pass),
                       "unit": layer_unit(name)} for name in per_pass[0]}

    def _print_dominant(self, summary: SpanSummary, m: dict, untraced_wall: float):
        top = max(summary.self_ns, key=summary.self_ns.get, default="-")
        replay = sum(v for k, v in m.items() if k.endswith(".replay_s"))
        print(f"  largest self time: {top} {summary.self_ns[top] / 1e9:.3f} s; "
              f"cache replay {replay:.3f} s of untraced wall {untraced_wall:.3f} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=124)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so a running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "cdnsim" / "__init__.py").is_file():
        print(f"error: no cdnsim sources under {SRC}", file=sys.stderr)
        return 1

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds)
    # Warm-up: fills the bytecode cache and stops early if the CLI cannot start.
    warm = bench.fresh_process(bench.wl.validate_argv(str(bench.topology)),
                               bench.work / "warmup")
    if warm.returncode != 0:
        print(f"error: cdnsim validate failed: {warm.stderr.strip()[-500:]}",
              file=sys.stderr)
        return 1
    metrics = bench.trace() if args.trace else bench.measure()
    print(f"fail_ratio {bench.failed}/{bench.attempted}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
