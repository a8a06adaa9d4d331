"""The library takes no hidden inputs: nothing under ``src/`` touches the
process environment.

A stack's L2P backing and telemetry tier are arguments
(``FtlConfig.l2p_strategy``, ``Telemetry(mode=..., sample_every=...)``,
``crashexplore --l2p``), so a run cannot change with the caller's shell
and tier-1 is the same under any environment.  The scan is over the AST,
not the text: the word "environment" is fine in prose, while
``os.environ`` / ``os.getenv`` / ``os.putenv`` / ``os.unsetenv`` in code
— read or written, under any alias of ``os`` — is not."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``os`` names that read or write the process environment.
ENVIRONMENT = frozenset({"environ", "environb", "getenv", "getenvb",
                         "putenv", "unsetenv"})


def python_sources(*top_dirs):
    """``(relative path, source)`` of every ``.py`` file under
    ``top_dirs`` (relative to the repo root)."""
    for top in top_dirs:
        pattern = os.path.join(ROOT, top, "**", "*.py")
        for path in sorted(glob.glob(pattern, recursive=True)):
            with open(path, encoding="utf-8") as handle:
                yield os.path.relpath(path, ROOT), handle.read()


def environment_touches(source):
    """Line numbers of ``source`` that name an environment accessor:
    ``<anything>.environ`` etc., or ``from os import environ``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in ENVIRONMENT for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def environment_reads(source):
    """The variable names ``source`` looks up by string literal:
    ``os.environ.get("X")`` / ``.pop`` / ``.setdefault``,
    ``os.environ["X"]``, ``"X" in os.environ`` and ``os.getenv("X")``."""
    def is_environ(node):
        return isinstance(node, ast.Attribute) and node.attr == "environ"

    def literal(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    names = set()
    for node in ast.walk(ast.parse(source)):
        key = None
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and (
                    func.attr == "getenv"
                    or (func.attr in ("get", "pop", "setdefault")
                        and is_environ(func.value))):
                key = literal(node.args[0])
        elif isinstance(node, ast.Subscript) and is_environ(node.value):
            key = literal(node.slice)
        elif (isinstance(node, ast.Compare) and len(node.comparators) == 1
              and is_environ(node.comparators[0])):
            key = literal(node.left)
        if key is not None:
            names.add(key)
    return names


def test_the_scan_reads_code_not_prose():
    source = ('"""Reads the environment, os.environ, in prose only."""\n'
              "import os\n"
              "import os as _os\n"
              "from os import getenv\n"
              "a = os.environ.get('REPRO_A', 'x')\n"
              "_os.environ['REPRO_B'] = '1'\n"
              "c = 'REPRO_C' in os.environ\n"
              "os.putenv('REPRO_D', '1')\n"
              "e = os.path.join('environ')\n")
    assert environment_touches(source) == [4, 5, 6, 7, 8]
    assert environment_reads(source) == {"REPRO_A", "REPRO_B", "REPRO_C"}
    assert environment_touches("x = 'os.environ'  # os.getenv\n") == []


def test_nothing_under_src_touches_the_environment():
    scanned = 0
    offenders = []
    for path, source in python_sources("src"):
        scanned += 1
        offenders += [f"{path}:{line}"
                      for line in environment_touches(source)]
    assert scanned >= 80, "the source tree was not scanned"
    assert not offenders, (
        "library code reads or writes the process environment; pass the "
        "value as an argument from the caller instead:\n"
        + "\n".join(offenders))
