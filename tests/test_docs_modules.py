"""Docs may only name modules that exist.

A ``python -m repro.…`` command or a ``repro.x.y`` path left in a doc
after its module was deleted misleads every reader who copies it, and
nothing else fails.  This holds README.md, DESIGN.md, EXPERIMENTS.md,
``docs/*.md`` and the verify skill to the source tree, as
``test_docs_checkpoints.py`` and ``test_docs_metric_catalog.py`` do for
the fault-point and metric tables: every ``python -m`` target, and every
dotted ``repro.`` path in an inline code span or a fenced block, must
resolve — a module by ``importlib.util.find_spec``, or a module followed
by attributes of it (``repro.ssd.device.Ssd._issue``)."""

import glob
import importlib
import importlib.util
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
DOC_GLOBS = (os.path.join("docs", "*.md"),
             os.path.join(".*", "skills", "*", "SKILL.md"))

FENCE = re.compile(r"^```.*?^```", re.M | re.S)
SPAN = re.compile(r"`([^`\n]+)`")
RUN_MODULE = re.compile(r"python3? -m (repro(?:\.\w+)+)")
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def doc_paths():
    paths = [os.path.join(ROOT, name) for name in DOCS]
    for pattern in DOC_GLOBS:
        paths += sorted(glob.glob(os.path.join(ROOT, pattern)))
    return paths


def named_modules(text):
    """``python -m`` targets anywhere in ``text``, plus the dotted
    ``repro.…`` paths in its fenced blocks and inline code spans."""
    names = set(RUN_MODULE.findall(text))
    code = FENCE.findall(text) + SPAN.findall(FENCE.sub("", text))
    for chunk in code:
        names.update(DOTTED.findall(chunk))
    return names


def resolves(dotted):
    """Is ``dotted`` a module, or a module followed by its attributes?"""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            spec = importlib.util.find_spec(module)
        except ModuleNotFoundError:   # a parent on the path is no package
            continue
        if spec is None:
            continue
        target = importlib.import_module(module)
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def test_resolves_modules_and_attributes_only():
    assert resolves("repro.tools.report")
    assert resolves("repro.ssd.device.Ssd.write")
    assert not resolves("repro.tools.no_such_tool")
    assert not resolves("repro.ssd.device.NoSuchClass")


def test_every_module_the_docs_name_exists():
    checked = 0
    missing = []
    for path in doc_paths():
        with open(path, encoding="utf-8") as handle:
            names = named_modules(handle.read())
        checked += len(names)
        missing += [f"{os.path.relpath(path, ROOT)}: {name}"
                    for name in sorted(names) if not resolves(name)]
    assert checked >= 50, "the docs' module names were not parsed"
    assert not missing, ("docs name modules that do not exist:\n"
                         + "\n".join(missing))
