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


def _unread(sources):
    """The public top-level functions, and the non-dunder methods of the public
    classes, of ``sources`` (module name -> source text) that no module reads.

    A function or an instance method counts as read when its name is read
    anywhere, as a Name or an Attribute.  A classmethod or staticmethod counts
    as read only as ``Class.name``, or as ``cls.name`` inside its own class,
    so a classmethod is not hidden by another class's method of the same
    name.  Blind spot: two classes can share an instance method name, and a
    read of either then counts for both."""
    defs, names, class_reads = {}, set(), set()
    for mod, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs[f"{mod}:{node.name}"] = (names, node.name)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef) or (
                            item.name.startswith("__") and item.name.endswith("__")):
                        continue
                    bound = {d.id for d in item.decorator_list if isinstance(d, ast.Name)}
                    defs[f"{mod}:{node.name}.{item.name}"] = (
                        (class_reads, (node.name, item.name))
                        if bound & {"classmethod", "staticmethod"} else (names, item.name))
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                            and sub.value.id == "cls"):
                        class_reads.add((node.name, sub.attr))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
                if isinstance(sub.value, ast.Name):
                    class_reads.add((sub.value.id, sub.attr))
    return sorted(key for key, (reads, name) in defs.items() if name not in reads)


def test_every_public_function_and_method_is_read_inside_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    orphans = [key for key in _unread(sources) if key.split(":")[1] not in ALLOWED_UNUSED]
    assert not orphans, f"read by no command or check: {orphans}"


def test_an_unread_classmethod_is_found_next_to_a_read_namesake():
    source = """
class A:
    @classmethod
    def f(cls):
        return 1

class B:
    @classmethod
    def f(cls):
        return 2

    @classmethod
    def g(cls):
        return cls.f()

    def h(self):
        return 3

def _main():
    return B.g() + B().h()
"""
    assert _unread({"m": source}) == ["m:A.f"]
