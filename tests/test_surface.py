"""The public surface: every name a module exports serves the package, every
name the top level binds has a reader outside it, the import loads no module
the package does not need, every function of the package runs under some
`dqmf` command, and every per-layer metric of the benchmark has a probe
target in the package."""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import dqmf

SRC = Path(dqmf.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]

# defs that no command enters, each kept for a reason of its own
NEVER_ENTERED = {
    "algebra:RatT.__hash__": "RatT is a value type: the frozen IdealId hashes its parameter",
}
# kept for people reading a failure, not for any command
FOR_READERS = {"__repr__", "__str__"}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_exported_name_is_used_inside_the_package():
    """A name in a module's __all__ is read (as a Name or an Attribute) by some
    module of src/dqmf; the re-exports of __init__ do not count.  This covers
    the classes and constants, which the command guard below does not see."""
    allowed = {key.split(":")[1] for key in NEVER_ENTERED}
    exported, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in _exported(tree):
            exported[name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    orphans = sorted(f"{mod}:{name}" for name, mod in exported.items()
                     if name not in used and name not in allowed)
    assert not orphans, f"exported but used by no command or check: {orphans}"


# where the package is read from outside: the benchmark, the tests, README, CI
READERS = ("perfbench/*.py", "tests/*.py", "README.md", ".github/workflows/tests.yml")


def test_the_top_level_binds_exactly_what_its_readers_read():
    """Every name dqmf/__init__ binds is read as dqmf.<name> by some reader,
    else it is a second import path with no use; and every such read, a
    submodule or a dunder aside, resolves."""
    bound = set()
    for node in ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    read = set()
    for pattern in READERS:
        for path in REPO.glob(pattern):
            read.update(re.findall(r"\bdqmf\.(\w+)", path.read_text(encoding="utf-8")))
    unread = sorted(bound - read)
    assert not unread, f"bound by dqmf/__init__ but read as dqmf.<name> nowhere: {unread}"
    submodules = {path.stem for path in SRC.glob("*.py")}
    dangling = sorted(name for name in read - submodules
                      if not name.startswith("__") and not hasattr(dqmf, name))
    assert not dangling, f"read as dqmf.<name> but not bound: {dangling}"


def test_the_import_loads_no_dataclasses_inspect_ast_or_dis():
    """Importing the package and its commands adds none of the modules that
    dataclasses brings (each costs milliseconds on every cold start).  A set
    difference, so a module that interpreter start-up preloads does not count."""
    code = ("import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
            "import dqmf, dqmf.suite, dqmf.cli; print(' '.join(set(sys.modules) - before))")
    run = subprocess.run([sys.executable, "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True)
    added = set(run.stdout.split())
    assert "dqmf.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis"}, sorted(added)


def test_every_per_layer_metric_has_a_probe_target():
    """perfbench/tracing.py reports a metric only while one of its probe
    targets (a public callable, or a `suite.CHECKS` key) exists, so removing
    or renaming such a target drops a per-layer metric of BENCHMARK.json from
    every traced run.  The two metrics that perfbench/run.py computes itself
    need no probe."""
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import tracing; "
            "tracer = tracing.Tracer(); tracer.install(); "
            "print(json.dumps(sorted(tracer.layer_metrics())))")
    run = subprocess.run([sys.executable, "-c", code, str(REPO / "perfbench"), str(SRC.parent)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    reported = set(json.loads(run.stdout)) | {"serve.repeat_share", "trace.overhead_ratio"}
    declared = {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]}
    assert sorted(declared - reported) == [], "per-layer metrics without a probe target"
    assert sorted(reported - declared) == [], "reported but not declared in BENCHMARK.json"


# ---------------------------------------------------------------------------
# Every def runs under some command.

# Runs ``<package>.cli.main`` on each command line in a fresh interpreter, so
# no cache or interned field of an earlier test skips a function body, and
# prints the exit codes and the (file, first line, name) of every code object
# entered.  A decorated def's code starts at its first decorator.
_RUNNER = """
import contextlib, importlib, io, json, os, sys

root, package = sys.argv[1], sys.argv[2]
commands = json.load(sys.stdin)
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.path.insert(0, root)
sys.setprofile(profile)
cli = importlib.import_module(package + ".cli")
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
code_keys = sorted({(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in entered})
print(json.dumps({"codes": codes, "entered": code_keys}))
"""


def _defs(package_dir: Path) -> dict:
    """(file, first line, name) -> "module:Qualified.name" of every def in the
    package's modules, nested defs and methods included."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first, child.name)] = f"{path.stem}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(package_dir.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), "")
    return out


def _never_entered(package_dir: Path, commands):
    """(exit codes, sorted "module:Qualified.name" of the defs in package_dir
    that none of the command lines entered, __repr__ and __str__ aside)."""
    run = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(package_dir.parent), package_dir.name],
        input=json.dumps(commands), capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    result = json.loads(run.stdout)
    entered = {tuple(key) for key in result["entered"]}
    missed = sorted(name for key, name in _defs(package_dir).items()
                    if key not in entered and key[2] not in FOR_READERS)
    return result["codes"], missed


def _field_commands(field_file):
    """Every subcommand, in text and JSON form, and every way to name a field."""
    verify = [["verify", "--q", str(q), "--n-max", "16"] for q in (2, 3, 4, 5, 7, 8, 9)]
    verify[0].append("--json")
    return verify + [
        ["derive", "--q", "5", "E^2 g + (1/(T^5 - T)) h^2", "6"],
        ["derive", "--q", "4", "E g h", "5", "--json"],
        ["derive", "--q", "4", "[0,1] E g/(T + [1,1])", "3"],  # a coordinate tuple and /
        ["expand", "--q", "4", "h", "20"],
        ["expand", "--q", "5", "E g", "30", "--n", "5", "--json"],
        ["basis", "--q", "5", "24", "0", "2"],
        ["basis", "--q", "5", "24", "0", "2", "--json"],
        ["ideal", "--q", "5", "Pd", "--d", "T+1", "--n-max", "8"],
        ["ideal", "--q", "4", "max", "--c", "T", "--n-max", "8", "--json"],
        ["field", "--q", "9"],
        ["field", "--p", "3", "--e", "2", "--modulus", "2 2 1", "--json"],
        ["field", "--field-file", str(field_file)],
    ]


# the negative control exits 1, each malformed input 2
FAILING = [
    ["ideal", "--q", "4", "E", "--n-max", "8"],
    ["derive", "--q", "4", "E^-1", "1"],
    ["derive", "--q", "4", "E +", "1"],
    ["derive", "--q", "4", "E/g", "1"],
    ["derive", "--q", "5", "E", "999"],
    ["field", "--q", "6"],
]


def test_every_function_runs_under_some_command(tmp_path):
    field_file = tmp_path / "f9.cfg"
    field_file.write_text("p = 3\ne = 2\nmodulus = 1 0 1\n")
    commands = _field_commands(field_file)
    codes, missed = _never_entered(SRC, commands + FAILING)
    assert codes == [0] * len(commands) + [1] + [2] * (len(FAILING) - 1)
    unentered = sorted(set(missed) - NEVER_ENTERED.keys())
    assert not unentered, f"entered by no dqmf command: {unentered}"
    stale = sorted(NEVER_ENTERED.keys() - set(missed))
    assert not stale, f"allowlisted, but entered or gone: {stale}"


def test_a_method_no_command_calls_is_reported(tmp_path):
    package = tmp_path / "planted"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(textwrap.dedent("""
        class A:
            @property
            def used(self):
                return 1

            def __mul__(self, other):
                return 2

            def planted(self):
                return 3


        def main(argv):
            return A().used - 1
    """))
    codes, missed = _never_entered(package, [[], []])
    assert codes == [0, 0]
    assert missed == ["cli:A.__mul__", "cli:A.planted"]
