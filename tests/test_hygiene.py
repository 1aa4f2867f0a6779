"""Source hygiene checks that need no linter: only the stdlib `ast` module."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cdnsim
from cdnsim import (
    CacheConfig,
    Scenario,
    ZipfModel,
    closest_assignment,
    generate_users,
)
from conftest import path_topology

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cdnsim"
README = ROOT / "README.md"
# __init__.py imports only to re-export
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS_AND_SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import but never reads, in source order."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import json\nimport os.path\nfrom math import inf, pi as PI\nprint(os, PI)\n"
    assert unused_imports(source) == ["json", "inf"]


@pytest.mark.parametrize("path", MODULES + TESTS_AND_SCRIPTS, ids=[p.name for p in MODULES]
                         + [f"{p.parent.name}/{p.name}" for p in TESTS_AND_SCRIPTS])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def _names(tree: ast.AST) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def uncalled_functions(sources: dict[str, str]) -> list[str]:
    """Public module-level functions, and public methods of public classes, that
    no module names outside their own body, as module.function or
    module.Class.method."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((module, node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs += [(f"{module}.{node.name}", method) for method in node.body
                         if isinstance(method, ast.FunctionDef)]
    return [f"{owner}.{node.name}" for owner, node in defs
            if not node.name.startswith("_") and named[node.name] == _names(node)[node.name]]


def test_uncalled_functions_are_found():
    sources = {"a": "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
                    "def recursive(): recursive()\n"
                    "class Public:\n    def called(self): pass\n    def uncalled(self): pass\n"
                    "    def _private(self): pass\n"
                    "class _Hidden:\n    def hidden(self): pass\n",
               "b": "from a import unused\nimport a\na.used()\na.Public().called()\n"}
    assert uncalled_functions(sources) == ["a.unused", "a.recursive", "a.Public.uncalled"]


def test_every_public_function_has_a_caller():
    """A public function or method of the package is called somewhere in it;
    __init__ re-exports and the tests do not count, so no test-only function
    lives in the package."""
    assert uncalled_functions({p.stem: p.read_text() for p in MODULES}) == []


def test_random_streams_come_only_from_profiles_and_requests():
    """Only user profiles and request streams draw random numbers; every other
    result depends on its inputs alone."""
    readers = [p.name for p in MODULES if _names(ast.parse(p.read_text()))["make_rng"]]
    assert readers == ["profiles.py", "simulation.py"]


def isinstance_bool_checks(source: str) -> int:
    """How many `isinstance` calls name `bool` in their type argument."""
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "isinstance" and len(node.args) == 2
               and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
               for node in ast.walk(ast.parse(source)))


def test_isinstance_bool_checks_are_found():
    source = "isinstance(x, bool)\nisinstance(x, (int, bool))\nisinstance(bool, int)\n"
    assert isinstance_bool_checks(source) == 2


def test_only_errors_rejects_a_bool_for_a_number():
    """Counts, seeds, priorities and weights from outside pass the two checks
    in errors.py, so no other module tells a bool from a number itself."""
    owners = [p.name for p in MODULES if isinstance_bool_checks(p.read_text())]
    assert owners == ["errors.py"]


def scoped_nodes(source: str, wanted) -> list[str]:
    """The function, as Class.method or function (or <module>), of each node
    that `wanted` accepts, once per node."""
    found = []

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif wanted(child):
                found.append(scope or "<module>")
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def node_sorts(source: str) -> list[str]:
    """Functions, as Class.method or function, that call `sorted` or `.sort`
    with a `key` lambda reading `.node`, once per call."""
    return scoped_nodes(source, lambda call: isinstance(call, ast.Call) and (
        (isinstance(call.func, ast.Name) and call.func.id == "sorted"
         or isinstance(call.func, ast.Attribute) and call.func.attr == "sort")
        and any(k.arg == "key" and isinstance(k.value, ast.Lambda)
                and any(isinstance(n, ast.Attribute) and n.attr == "node"
                        for n in ast.walk(k.value.body))
                for k in call.keywords)))


def exits_without_teardown(source: str) -> list[str]:
    """Functions, as Class.method or function, that call `_exit` (`os._exit`
    or a bare imported `_exit`), once per call."""
    return scoped_nodes(source, lambda call: isinstance(call, ast.Call) and (
        isinstance(call.func, ast.Attribute) and call.func.attr == "_exit"
        or isinstance(call.func, ast.Name) and call.func.id == "_exit"))


def test_node_sorts_are_found():
    source = ("def by_node(users):\n    return sorted(users, key=lambda u: u.node)\n"
              "class Eval:\n    def __init__(self, users):\n"
              "        users.sort(key=lambda u: (u.node, u.priority))\n"
              "        sorted(users, key=lambda u: u.priority)\n"
              "        sorted(users, key=by_node)\n"
              "sorted([], key=lambda p: p.node)\n")
    assert node_sorts(source) == ["by_node", "Eval.__init__", "<module>"]


def test_only_by_node_sorts_a_user_list():
    """`placement._by_node` checks a user list and puts it in node-id order; a
    stage that sorted users itself could take a list that check never saw."""
    owners = [f"{p.stem}.{name}" for p in MODULES for name in node_sorts(p.read_text())]
    assert owners == ["placement._by_node"]


def attribute_uses(source: str, attr: str) -> list[str]:
    """Functions, as Class.method or function (or <module>), that read or
    write an attribute named `attr` on anything, once per use."""
    return scoped_nodes(source, lambda node: isinstance(node, ast.Attribute)
                        and node.attr == attr)


def test_attribute_uses_are_found():
    source = ("def weigh(topo, u):\n    return topo.priorities[u.node] * u.priority\n"
              "class Users:\n    def load(self, u, topo):\n        u.priority = 1.0\n"
              "        return getattr(u, 'priority'), topo.priorities_of\n"
              "x.priority\n")
    assert attribute_uses(source, "priority") == ["weigh", "Users.load", "<module>"]
    assert attribute_uses(source, "priorities") == ["weigh"]


def test_node_priority_has_one_reader():
    """A user group is a node and a profile: its weight is its node's priority,
    which the topology owns and only `placement._Eval` reads, so the library
    and the CLI weigh the same users alike."""
    uses = {p.stem: {*attribute_uses(p.read_text(), "priorities")} for p in MODULES}
    assert {module: names for module, names in uses.items()
            if names and module != "topology"} == {"placement": {"_Eval.__init__"}}
    assert [p.name for p in MODULES if attribute_uses(p.read_text(), "priority")] == []


def builtin_sum_calls(source: str) -> list[str]:
    """Functions, as Class.method or function (or <module>), that call the
    builtin `sum` by its bare name, once per call; `np.sum` and `.sum()` are
    attributes and do not count."""
    return scoped_nodes(source, lambda call: isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name) and call.func.id == "sum")


def test_builtin_sum_calls_are_found():
    source = ("def total(xs):\n    return sum(xs)\n"
              "class Eval:\n    def __init__(self, p):\n        self.t = sum(p, 0.0)\n"
              "        self.u = np.sum(p) + p.sum() + left_sum(p)\n"
              "sum([])\n")
    assert builtin_sum_calls(source) == ["total", "Eval.__init__", "<module>"]


def test_only_integer_counts_use_the_builtin_sum():
    """From Python 3.12 the builtin `sum` compensates float round-off, so a float
    total it gave could differ between versions; `rng.left_sum` adds every float
    total in order, and the builtin is left only to `load_trace`'s integer counts,
    which it adds exactly."""
    owners = [f"{p.stem}.{name}" for p in MODULES for name in builtin_sum_calls(p.read_text())]
    assert owners == ["profiles.load_trace"]


def test_exits_without_teardown_are_found():
    source = ("import os\nfrom os import _exit\n"
              "def leave(code):\n    os._exit(code)\n"
              "class Runner:\n    def stop(self):\n        _exit(0)\n"
              "        sys.exit(1)\n"
              "os._exit(2)\n")
    assert exits_without_teardown(source) == ["leave", "Runner.stop", "<module>"]


def test_only_the_process_entry_point_skips_teardown():
    """`cli.main_and_exit` ends the `cdnsim` process after flushing stdout and
    stderr; an `os._exit` anywhere else would drop buffered output, and
    in-process callers of `main` must get its return code back."""
    owners = [f"{p.stem}.{name}" for p in MODULES
              for name in exits_without_teardown(p.read_text())]
    assert owners == ["cli.main_and_exit"]


def file_writes(source: str) -> list[str]:
    """Functions, as Class.method or function (or <module>), that create a
    directory (`mkdir`, `makedirs`), write a file (`write_text`, `write_bytes`)
    or call `open` with a constant write mode, positional or `mode=`, once per
    call."""
    def writes(call: ast.AST) -> bool:
        if not isinstance(call, ast.Call):
            return False
        name = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(
            call.func, "id", None)
        if name in ("mkdir", "makedirs", "write_text", "write_bytes"):
            return True
        modes = [a.value for a in [*call.args, *(k.value for k in call.keywords)]
                 if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        return name == "open" and any(set(m) <= set("rwxabt+") and set(m) & set("wax+")
                                      for m in modes)

    return scoped_nodes(source, writes)


def test_file_writes_are_found():
    source = ("def save(out, text):\n    out.mkdir(parents=True)\n"
              "    (out / 'a.csv').write_text(text)\n"
              "class Log:\n    def dump(self, p):\n        with open(p, 'a') as fh:\n"
              "            fh.write('x')\n"
              "        with p.open(mode='wb') as fh:\n            pass\n"
              "        open(p).read(), p.open('r'), open('w.txt'), p.read_text()\n"
              "Path('x').write_bytes(b'')\n")
    assert file_writes(source) == ["save", "save", "Log.dump", "Log.dump", "<module>"]


def test_only_main_writes_files():
    """A command returns its files and `cli.main` writes them once the command
    succeeded, so a command that fails leaves no --out behind and no library
    function creates a directory or writes a file."""
    owners = [f"{p.stem}.{name}" for p in MODULES for name in file_writes(p.read_text())]
    assert owners and set(owners) == {"cli.main"}


def topology_parses(source: str) -> list[str]:
    """Functions, as Class.method or function (or <module>), that call
    `parse_topology`, by its bare name or as an attribute, once per call."""
    def parses(call: ast.AST) -> bool:
        return isinstance(call, ast.Call) and "parse_topology" == (
            call.func.attr if isinstance(call.func, ast.Attribute)
            else getattr(call.func, "id", None))

    return scoped_nodes(source, parses)


def test_topology_parses_are_found():
    source = ("def load(args):\n    return parse_topology(args.data)\n"
              "class Cli:\n    def run(self, data):\n"
              "        return topology.parse_topology(data, weight_key='w')\n"
              "parse = parse_topology\nparse_topology_file(b'')\nparse_topology(b'')\n")
    assert topology_parses(source) == ["load", "Cli.run", "<module>"]


def test_only_main_parses_the_topology():
    """`cli.main` reads and parses --topology once, before the command runs,
    and hands the command the topology, so no command parses it again."""
    owners = [f"{p.stem}.{name}" for p in MODULES for name in topology_parses(p.read_text())]
    assert owners == ["cli.main"]


def readme_library_example() -> str:
    """The python block of README's "Library" section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    """The example names only API that exists, and runs on a small weighted graph."""
    ids = [f"n{i:03d}" for i in range(12)]
    pairs = [(ids[i], ids[i + 1]) for i in range(11)] + [(ids[0], ids[6]), (ids[3], ids[9])]
    edges = "".join(f'<edge source="{a}" target="{b}"><data key="w">{1 + i % 4 * 0.5}</data>'
                    "</edge>" for i, (a, b) in enumerate(pairs))
    (tmp_path / "net.graphml").write_text(
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
        '<key id="w" for="edge" attr.name="LinkSpeed" attr.type="double"/>'
        '<graph edgedefault="undirected">'
        + "".join(f'<node id="{n}"/>' for n in ids) + edges + "</graph></graphml>")
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_library_example(), "README.md", "exec"), {})


def fresh_interpreter(code: str) -> str:
    """The stdout of `code` run by a new interpreter that imports cdnsim from src/."""
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=60).stdout


def test_importing_the_package_loads_no_numpy():
    assert fresh_interpreter("import sys, cdnsim; print('numpy' in sys.modules)") == "False\n"


def test_validate_help_and_usage_errors_load_no_numpy(tmp_path):
    """validate only parses and checks a graph, and --help and a usage error
    stop in the parser, so none of them waits for numpy to load."""
    graph = tmp_path / "tiny.graphml"
    graph.write_text('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
                     '<graph edgedefault="undirected"><node id="A"/><node id="B"/>'
                     '<edge source="A" target="B"/></graph></graphml>')
    runs = [["validate", "--topology", str(graph)], ["--help"],
            ["simulate", "--topology", str(graph), "--sweep", "bogus"]]
    code = f"""
import contextlib, io, json, sys
from cdnsim.cli import main
results = []
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse ends --help itself
            status = exc.code
    results.append([status, "numpy" in sys.modules])
print(json.dumps(results))
"""
    assert json.loads(fresh_interpreter(code)) == [[0, False], [0, False], [1, False]]


def test_every_export_resolves():
    """`import cdnsim` loads each public name from its module on first read."""
    assert cdnsim.__all__ and all(getattr(cdnsim, name) is not None for name in cdnsim.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cdnsim.no_such_name


def bench_tracer():
    """`bench/tracer.py`, loaded from its file without touching `bench/`."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_hooks_read_real_results():
    """Every function the benchmark's tracer hooks is a function it finds by
    name, and each hook reads that function's result on a small instance into a
    non-zero count: a renamed function or a changed return shape fails here."""
    tracer_module = bench_tracer()
    tracer = tracer_module.Tracer(cdnsim)
    assert set(tracer_module.HOOKS) <= set(tracer.functions)
    topo = path_topology(["A", "B", "C", "D", "E"])
    users = generate_users(topo, ZipfModel(0.3, 20, 5), 7)
    placement = ("A", "E")  # dragoon at k=1 moves from the farthest-first A to C
    closest = closest_assignment(topo, users, placement)
    args = {
        "placement.dragoon": (topo, users, 1),
        "assignment.greedy_correlation": (users, placement, closest),
        "pareto.front_sweep": (topo, users, 2, 3),
        "simulation.run": (Scenario(topo, users, placement, closest, CacheConfig(2), "C", 7),),
    }
    for name, hook in tracer_module.HOOKS.items():
        tracer.reset()
        hook(tracer, args[name], tracer.functions[name](*args[name]))
        assert sum(tracer.counts.values()) > 0, name
