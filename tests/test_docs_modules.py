"""Docs may only name modules and options that exist.

A ``python -m repro.…`` command or a ``repro.x.y`` path left in a doc
after its module was deleted misleads every reader who copies it, and
nothing else fails.  This holds README.md, DESIGN.md, EXPERIMENTS.md,
``docs/*.md`` and the verify skill to the source tree, as
``test_docs_checkpoints.py`` and ``test_docs_metric_catalog.py`` do for
the fault-point and metric tables: every ``python -m`` target, and every
dotted ``repro.`` path in an inline code span or a fenced block, must
resolve — a module by ``importlib.util.find_spec``, or a module followed
by attributes of it (``repro.ssd.device.Ssd._issue``).  Likewise every
``FtlConfig.<x>``, ``SsdConfig.<x>`` or ``IoTrace.<x>`` there must be an
attribute of an instance: a doc describing a deleted knob fails.  And a
``REPRO_*`` environment variable a doc names, anywhere in its text, must
be one that an ``os.environ`` read under ``src/`` or ``benchmarks/``
actually looks up: a doc telling readers to set a retired variable
fails."""

import glob
import importlib
import importlib.util
import os
import re

from test_environment_edge import environment_reads, python_sources

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
DOC_GLOBS = (os.path.join("docs", "*.md"),
             os.path.join(".*", "skills", "*", "SKILL.md"))

FENCE = re.compile(r"^```.*?^```", re.M | re.S)
SPAN = re.compile(r"`([^`\n]+)`")
RUN_MODULE = re.compile(r"python3? -m (repro(?:\.\w+)+)")
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
OPTION = re.compile(r"\b(FtlConfig|SsdConfig|IoTrace)\.([A-Za-z_]\w*)")
VARIABLE = re.compile(r"\bREPRO_[A-Z0-9_]+\b")


def doc_paths():
    paths = [os.path.join(ROOT, name) for name in DOCS]
    for pattern in DOC_GLOBS:
        paths += sorted(glob.glob(os.path.join(ROOT, pattern)))
    return paths


def code_chunks(text):
    """The fenced blocks and inline code spans of ``text``."""
    return FENCE.findall(text) + SPAN.findall(FENCE.sub("", text))


def named_modules(text):
    """``python -m`` targets anywhere in ``text``, plus the dotted
    ``repro.…`` paths in its fenced blocks and inline code spans."""
    names = set(RUN_MODULE.findall(text))
    for chunk in code_chunks(text):
        names.update(DOTTED.findall(chunk))
    return names


def named_options(text):
    """``(owner, attribute)`` for every ``FtlConfig.<x>``,
    ``SsdConfig.<x>`` or ``IoTrace.<x>`` in the code of ``text``."""
    return {match for chunk in code_chunks(text)
            for match in OPTION.findall(chunk)}


def option_owners():
    """One instance per owner: its fields, properties and methods, and
    the attributes set in ``__init__``, are all attributes of it."""
    from repro.ftl.config import FtlConfig
    from repro.ssd.device import SsdConfig
    from repro.ssd.trace import IoTrace
    return {"FtlConfig": FtlConfig(), "SsdConfig": SsdConfig(),
            "IoTrace": IoTrace(0)}


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


def test_options_are_read_from_code_only():
    text = ("`FtlConfig.l2p_strategy` and `IoTrace.capacity`, not "
            "FtlConfig.prose\n```\nSsdConfig(queue_depth=4).x = "
            "SsdConfig.queue_depth\n```\n")
    assert named_options(text) == {("FtlConfig", "l2p_strategy"),
                                   ("IoTrace", "capacity"),
                                   ("SsdConfig", "queue_depth")}
    owners = option_owners()
    assert hasattr(owners["IoTrace"], "capacity")
    assert not hasattr(owners["FtlConfig"], "read_retries")


def test_every_option_the_docs_name_exists():
    owners = option_owners()
    checked = 0
    missing = []
    for path in doc_paths():
        with open(path, encoding="utf-8") as handle:
            names = named_options(handle.read())
        checked += len(names)
        missing += [f"{os.path.relpath(path, ROOT)}: {owner}.{attribute}"
                    for owner, attribute in sorted(names)
                    if not hasattr(owners[owner], attribute)]
    assert checked >= 5, "the docs' option names were not parsed"
    assert not missing, ("docs name options that do not exist:\n"
                         + "\n".join(missing))


def read_variables():
    """Every environment variable a read under ``src/`` or
    ``benchmarks/`` looks up by name."""
    names = set()
    for __, source in python_sources("src", "benchmarks"):
        names |= environment_reads(source)
    return names


def test_variables_are_matched_in_the_whole_text():
    text = ("Set `REPRO_BENCH_SCALE=tiny`; REPRO_L2P is gone, and so\n"
            "is ```\nREPRO_OBS_SAMPLE=8 pytest\n```, but not REPRO_ or "
            "XREPRO_Y.\n")
    assert set(VARIABLE.findall(text)) == {
        "REPRO_BENCH_SCALE", "REPRO_L2P", "REPRO_OBS_SAMPLE"}
    assert "REPRO_BENCH_SCALE" in read_variables()
    assert not {"REPRO_L2P", "REPRO_OBS", "REPRO_OBS_SAMPLE"} \
        & read_variables()


def test_every_variable_the_docs_name_is_read():
    known = read_variables()
    checked = 0
    missing = []
    for path in doc_paths():
        with open(path, encoding="utf-8") as handle:
            names = set(VARIABLE.findall(handle.read()))
        checked += len(names)
        missing += [f"{os.path.relpath(path, ROOT)}: {name}"
                    for name in sorted(names - known)]
    assert checked >= 1, "the docs' variable names were not parsed"
    assert not missing, ("docs name environment variables nothing reads:\n"
                         + "\n".join(missing))
