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

The public methods and properties of every class are held to the same
rule (by name: a method is used where any caller names it).

So are the options: a defaulted parameter of any function or method
(``__init__`` included, whatever its name or its parameter's name) and a
defaulted field of a ``frozen=True`` dataclass must be set by some
caller, or they are a constant spelled as a knob.  An option is set
where a call outside ``tests/`` passes its name as a keyword, or where a
positional argument reaches it: a call by the function's name (the
class's, for ``__init__`` and fields), by an import alias of it, or
through a call that forwards the function itself (``functools.partial(f,
a)``, ``router._shard_op(group, group.get, key, session, min_seq)``:
the arguments after the reference are ``f``'s).  A keyword that only
forwards an option of the enclosing function (``g(k=k)``) sets ``g``'s
``k`` only if the enclosing ``k`` is itself set.  A frozen field can only
be set through its class, so a keyword sets it only in a call of the
class (or of ``dataclasses.replace``).

Code that only its own unit tests reach is cost without a user: delete
it with its tests, or give it the caller that justifies it.  The scan is
over the AST, so prose naming a function keeps nothing alive."""

import ast

from test_environment_edge import python_sources

#: Top-level directories whose modules count as real callers.
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")

#: Public names kept without a non-test caller, with their reasons.
ALLOWED = {
    "CorruptRead":
        "the only injector for the map-log record CRC check "
        "(tests/test_media_faults.py); kept until the data-page checksum "
        "decides whether a media sweep arms it or the check goes with it",
    "Ssd.idle_gc":
        "the GOLDEN victim draws of tests/test_gc_victims.py include idle "
        "GC, and that golden is the record GC behaviour is held to",
}

#: Options kept without a non-test caller, with their reasons.
ALLOWED_OPTIONS = {
    "main(argv)":
        "each CLI's entry point: ``python -m`` passes nothing and reads "
        "sys.argv, the tests pass the argument list",
}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions(tree):
    """``(label, node)`` for the module-level public function and class
    nodes of ``tree`` and the public methods and properties of its
    classes (labelled ``Class.name``)."""
    found = [(node.name, node) for node in tree.body
             if isinstance(node, FUNCTIONS + (ast.ClassDef,))
             and not node.name.startswith("_")]
    found += [(f"{owner.name}.{node.name}", node)
              for owner in tree.body if isinstance(owner, ast.ClassDef)
              for node in owner.body
              if isinstance(node, FUNCTIONS)
              and not node.name.startswith("_")]
    return found


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
    that no caller module names (methods and properties too).
    ``modules`` is ``(relative path, source)`` pairs; only those under
    :data:`CALLER_DIRS` are callers."""
    trees = {path: ast.parse(source) for path, source in modules
             if path.split("/", 1)[0] in CALLER_DIRS}
    used_by = {path: uses(path, tree) for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        if not path.startswith("src/"):
            continue
        for label, node in public_definitions(tree):
            if any(node.name in names for other, names in used_by.items()
                   if other != path):
                continue
            if node.name in uses(path, tree, skip=node):
                continue
            unused.append(f"{path}:{node.lineno} {label}")
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


def test_the_class_scan_flags_methods_without_a_real_caller():
    modules = [
        ("src/repro/dev.py",
         "class Device:\n"
         "    def used(self):\n        return self._private()\n"
         "    def unused(self):\n        return self.unused()\n"
         "    @property\n    def level(self):\n        return 1\n"
         "    def _private(self):\n        pass\n"),
        ("src/repro/other.py",
         "class Other:\n    def uncalled(self):\n        pass\n"),
        ("src/repro/user.py",
         "from repro.dev import Device, Other\n"
         "Device().used()\nOther()\n"),
        ("tests/test_dev.py",
         "from repro.dev import Device\nDevice().level\n"),
    ]
    flagged = {line.split(" ")[1] for line in unused_public_names(modules)}
    assert flagged == {"Device.unused", "Device.level", "Other.uncalled"}


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
    stale = set(ALLOWED) - {line.split(" ")[1] for line in unused}
    assert not stale, f"allowlisted names now have a caller: {sorted(stale)}"


# ---------------------------------------------------------------- options


def _parameters(function, bound):
    """``(positional index or None, name)`` of the defaulted parameters
    of ``function``; ``bound`` drops the first (``self`` / ``cls``)."""
    args = function.args
    positional = args.posonlyargs + args.args
    if bound:
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    found = [(index, arg.arg) for index, arg in enumerate(positional)
             if index >= first_default]
    found += [(None, arg.arg) for arg, default
              in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return found


def _is_frozen_dataclass(owner):
    return any(isinstance(decorator, ast.Call)
               and _callee(decorator.func) == "dataclass"
               and any(keyword.arg == "frozen"
                       and getattr(keyword.value, "value", None) is True
                       for keyword in decorator.keywords)
               for decorator in owner.decorator_list)


def options(tree):
    """``(label, callee names, positional index or None, name, node)``
    for every defaulted parameter of ``tree``'s functions and methods
    (``__init__``'s are the class's, reached by the class name and the
    names of subclasses that inherit it) and every defaulted field of its
    frozen dataclasses."""
    found = []
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            found += [(node.name, {node.name}, index, name, node)
                      for index, name in _parameters(node, False)]
    for owner in classes:
        inheritors = {owner.name} | {
            other.name for other in classes
            if any(getattr(base, "id", None) == owner.name
                   for base in other.bases)
            and not any(isinstance(member, FUNCTIONS)
                        and member.name == "__init__"
                        for member in other.body)}
        for member in owner.body:
            if not isinstance(member, FUNCTIONS):
                continue
            static = any(getattr(decorator, "id", None) == "staticmethod"
                         for decorator in member.decorator_list)
            if member.name == "__init__":
                label, names = owner.name, inheritors
            else:
                label, names = f"{owner.name}.{member.name}", {member.name}
            found += [(label, names, index, name, member)
                      for index, name in _parameters(member, not static)]
        if _is_frozen_dataclass(owner):
            fields = [statement for statement in owner.body
                      if isinstance(statement, ast.AnnAssign)
                      and isinstance(statement.target, ast.Name)
                      and "ClassVar" not in ast.dump(statement.annotation)]
            found += [(owner.name, inheritors, index, field.target.id, field)
                      for index, field in enumerate(fields)
                      if field.value is not None]
    return found


def _callee(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def calls(trees):
    """Every call of the caller modules as ``(positional reach, keywords)``.

    Positional reach maps a callee name (import aliases resolved) to how
    many positional arguments reach it: the call's own, and for each
    argument that names a function (``partial(f, a)``, ``_shard_op(g,
    g.get, key)``) the arguments after it.  A starred argument reaches
    every later position.  Keywords are ``(name, forwarded)`` pairs:
    ``forwarded`` is ``(function node, name)`` when the value is the
    enclosing function's own parameter of that name, else None."""
    alias = {name.asname: name.name for tree in trees.values()
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for name in node.names if name.asname}
    found = []

    def count(args):
        return (float("inf") if any(isinstance(arg, ast.Starred)
                                    for arg in args) else len(args))

    def visit(node, function):
        if isinstance(node, FUNCTIONS + (ast.Lambda,)):
            function = node
        if isinstance(node, ast.Call):
            reach = {}
            for name, args in [(_callee(node.func), node.args)] + [
                    (_callee(arg), node.args[index + 1:])
                    for index, arg in enumerate(node.args)
                    if isinstance(arg, (ast.Name, ast.Attribute))]:
                name = alias.get(name, name)
                reach[name] = max(reach.get(name, 0), count(args))
            params = set() if function is None else {
                arg.arg for arg in function.args.posonlyargs
                + function.args.args + function.args.kwonlyargs}
            keywords = [(keyword.arg,
                         (function, keyword.arg)
                         if isinstance(keyword.value, ast.Name)
                         and keyword.value.id == keyword.arg
                         and keyword.arg in params else None)
                        for keyword in node.keywords if keyword.arg]
            found.append((reach, keywords))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    for tree in trees.values():
        visit(tree, None)
    return found


def unset_options(modules):
    """``path:line label(name)`` for each option under ``src/`` that no
    caller module sets.  ``modules`` is ``(relative path, source)``
    pairs; only those under :data:`CALLER_DIRS` are callers."""
    trees = {path: ast.parse(source) for path, source in modules
             if path.split("/", 1)[0] in CALLER_DIRS}
    found = [(path, option) for path, tree in trees.items()
             if path.startswith("src/") for option in options(tree)]
    every_call = calls(trees)
    reached = set()
    for path, (label, names, index, name, node) in found:
        if index is not None and any(
                reach.get(callee, 0) > index
                for reach, __ in every_call for callee in names):
            reached.add((id(node), name))
        if isinstance(node, ast.AnnAssign) and any(
                name in {keyword for keyword, __ in keywords}
                for reach, keywords in every_call
                if not reach.keys().isdisjoint(names | {"replace"})):
            reached.add((id(node), name))
    fields = {(id(node), name) for __, (___, ____, _____, name, node)
              in found if isinstance(node, ast.AnnAssign)}
    # A forward ``g(k=k)`` sets ``k`` only once the enclosing ``k`` is
    # set (or is no option at all): iterate to the fixed point.
    optional = {(id(node), name) for __, (___, ____, _____, name, node)
                in found}
    passed = [(keyword, forwarded) for __, keywords in every_call
              for keyword, forwarded in keywords]
    while True:
        names_set = {keyword for keyword, forwarded in passed
                     if forwarded is None
                     or (id(forwarded[0]), forwarded[1]) not in optional
                     or (id(forwarded[0]), forwarded[1]) in reached}
        grown = reached | {(id(node), name)
                           for __, (___, ____, _____, name, node) in found
                           if name in names_set
                           and (id(node), name) not in fields}
        if grown == reached:
            break
        reached = grown
    return [f"{path}:{node.lineno} {label}({name})"
            for path, (label, __, ___, name, node) in found
            if (id(node), name) not in reached]


def test_the_option_scan_flags_options_no_caller_sets():
    modules = [
        ("src/repro/mod.py",
         "import functools\n"
         "def knob(a, b=1, *, c=2):\n    pass\n"
         "def aliased(a, b=1):\n    pass\n"
         "def partial_only(a, b=1, d=2):\n    pass\n"
         "def forwarded(a, b=1):\n    pass\n"
         "def outer(x, b=1, _renamed=3):\n    return forwarded(x, b=b)\n"
         "def relay(op, *args):\n    return op(*args)\n"
         "class Config:\n    def __init__(self, depth=4, width=8):\n"
         "        pass\n"
         "    def method(self, level=0, mode='a'):\n        pass\n"
         "class Child(Config):\n    pass\n"
         "from dataclasses import dataclass\n"
         "@dataclass(frozen=True)\n"
         "class Frozen:\n    size: int\n    limit: int = 3\n"
         "    seed: int = 0\n"
         "@dataclass\n"
         "class Mutable:\n    count: int = 0\n"),
        ("src/repro/user.py",
         "from repro.mod import aliased as other, partial_only, outer\n"
         "import functools\n"
         "from repro.mod import Child, Config, Frozen, knob, relay\n"
         "knob(1, c=5)\nother(1, 2)\n"
         "functools.partial(partial_only, 1, 2)\n"
         "outer(1)\nChild(5)\nrelay(1, Config().method, 0)\n"
         "Frozen(1, 2)\nknob(1, seed=3)\n"),
        ("tests/test_mod.py",
         "from repro.mod import knob, Config, Frozen\n"
         "knob(1, 2)\nConfig(width=1).method(mode='b')\n"
         "Frozen(1, seed=5)\n"),
    ]
    flagged = {line.split(" ")[1] for line in unset_options(modules)}
    assert flagged == {"knob(b)", "partial_only(d)", "forwarded(b)",
                       "outer(b)", "outer(_renamed)", "Config(width)",
                       "Config.method(mode)", "Frozen(seed)"}


def test_every_option_under_src_has_a_caller_outside_tests():
    modules = list(python_sources(*CALLER_DIRS))
    unset = unset_options(modules)
    offenders = [line for line in unset
                 if line.split(" ")[1] not in ALLOWED_OPTIONS]
    assert not offenders, (
        "defaulted parameters / frozen fields under src/ that nothing "
        "outside tests/ sets; make each a constant at its default (and "
        "delete the code only another value reached), or give it a real "
        "caller:\n" + "\n".join(offenders))
    stale = set(ALLOWED_OPTIONS) - {line.split(" ")[1] for line in unset}
    assert not stale, f"allowlisted options now have a caller: {sorted(stale)}"
