"""Every public name under ``src/`` has a caller outside the tests.

A module-level function or class whose name does not start with ``_``
is public, and it must be *named* in some module under ``src/``,
``benchmarks/``, ``examples/`` or ``perfbench/`` outside its own
definition.  A name counts as used where it appears as an identifier, an
attribute, an imported name, or a string that is a whole identifier (the
``"share_ioctl"`` of a ``getattr`` or a registry table).  Two things do
not count: a package ``__init__.py`` importing it (a re-export is not a
use) and an ``__all__`` list.  A name bound in a module by an import from
outside ``repro`` (``from collections import Counter``) is that other
name there, not ours.

Code that only its own unit tests reach is cost without a user: delete
it with its tests, or give it the caller that justifies it.  The scan is
over the AST, so prose naming a function keeps nothing alive."""

import ast

from test_environment_edge import python_sources

#: Top-level directories whose modules count as real callers.
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")

#: Public names kept without a non-test caller, each with its reason.
ALLOWED = {
    # The only injector for the map-log record CRC check
    # (tests/test_media_faults.py); kept until the data-page checksum
    # decides whether a media sweep arms it or the check goes with it.
    "CorruptRead",
}


def public_definitions(tree):
    """The module-level public function and class nodes of ``tree``."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def foreign_imports(tree):
    """Names ``tree`` binds by importing from outside ``repro``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith(
                    "repro"):
                names.update(alias.asname or alias.name
                             for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names
                         if not alias.name.startswith("repro"))
    return names


def named_in(node, is_package, skip=None):
    """Yield every name ``node`` uses, except inside ``skip`` (a
    definition does not use itself), ``__all__``, and — in a package
    ``__init__.py`` — its imports."""
    if node is skip:
        return
    if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets):
        return
    if is_package and isinstance(node, (ast.Import, ast.ImportFrom)):
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1]
    elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
          and node.value.isidentifier()):
        yield node.value
    for child in ast.iter_child_nodes(node):
        yield from named_in(child, is_package, skip)


def uses(path, tree, skip=None):
    return (set(named_in(tree, path.endswith("__init__.py"), skip))
            - foreign_imports(tree))


def unused_public_names(modules):
    """``path:line name`` for each public name defined under ``src/``
    that no caller module names.  ``modules`` is ``(relative path,
    source)`` pairs; only those under :data:`CALLER_DIRS` are callers."""
    trees = {path: ast.parse(source) for path, source in modules
             if path.split("/", 1)[0] in CALLER_DIRS}
    used_by = {path: uses(path, tree) for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        if not path.startswith("src/"):
            continue
        for node in public_definitions(tree):
            if any(node.name in names for other, names in used_by.items()
                   if other != path):
                continue
            if node.name in uses(path, tree, skip=node):
                continue
            unused.append(f"{path}:{node.lineno} {node.name}")
    return unused


def test_the_scan_flags_names_without_a_real_caller():
    modules = [
        ("src/repro/__init__.py",
         "from repro.mod import exported, Counter\n"
         "__all__ = ['exported', 'Counter', 'listed']\n"),
        ("src/repro/mod.py",
         "def unused():\n    return unused()\n"
         "def exported():\n    pass\n"
         "def tested():\n    pass\n"
         "def listed():\n    pass\n"
         "def share_ioctl():\n    pass\n"
         "def helper():\n    pass\n"
         "class Counter:\n    pass\n"
         "def _private():\n    pass\n"
         "def entry():\n    return helper()\n"),
        ("src/repro/table.py",
         "import repro.mod\n"
         "handler = getattr(repro.mod, 'share_ioctl')\n"),
        ("src/repro/user.py",
         "from collections import Counter\n"
         "Counter('abc')\n"),
        ("examples/demo.py",
         "import repro.mod\nrepro.mod.entry()\n"),
        ("tests/test_mod.py",
         "from repro.mod import tested, unused\ntested()\n"),
    ]
    flagged = {line.split(" ")[1] for line in unused_public_names(modules)}
    assert flagged == {"unused", "exported", "tested", "listed", "Counter"}


def test_every_public_name_under_src_has_a_caller_outside_tests():
    modules = list(python_sources(*CALLER_DIRS))
    assert sum(path.startswith("src/") for path, __ in modules) >= 80, (
        "the source tree was not scanned")
    unused = unused_public_names(modules)
    offenders = [line for line in unused
                 if line.split(" ")[1] not in ALLOWED]
    assert not offenders, (
        "public names under src/ that nothing outside tests/ names; "
        "delete them with their tests, or give them a real caller:\n"
        + "\n".join(offenders))
    stale = ALLOWED - {line.split(" ")[1] for line in unused}
    assert not stale, f"allowlisted names now have a caller: {sorted(stale)}"
