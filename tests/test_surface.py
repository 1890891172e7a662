"""The public surface: every name a module exports serves the package."""

import ast
from pathlib import Path

import dqmf

SRC = Path(dqmf.__file__).parent

# exported for callers outside the package, so src/dqmf need not use them
ALLOWED_UNUSED = {
    "qmpoly_from_json",  # the inverse of `derive --json`, round-tripped by the tests
    "tseries_from_json",  # the inverse of `expand --json`, round-tripped by the tests
    "depth_drop",  # the paper's depth criterion, checked against the engine by the acceptance suite
}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_exported_name_is_used_inside_the_package():
    """A name in a module's __all__ is read (as a Name or an Attribute) by some
    module of src/dqmf; the re-exports of __init__ do not count."""
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
                     if name not in used and name not in ALLOWED_UNUSED)
    assert not orphans, f"exported but used by no command or check: {orphans}"
    assert ALLOWED_UNUSED <= exported.keys()
