"""The fault-point catalog in ``docs/crash-consistency.md`` names, for
every checkpoint, the file and the function(s) it sits in.  Hand-typed
positions go stale silently, so this holds each row to the source: the
point's name is a string literal in the file the row (or its section
heading) names, and every function the row names is defined there."""

import os
import re

import repro

SRC = os.path.dirname(os.path.abspath(repro.__file__))
DOC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "docs", "crash-consistency.md")

HEADING = re.compile(r"^### .*`src/repro/([\w/]+?)(/|\.py)`\s*$")
CODE = re.compile(r"`([^`]+)`")


def catalog_rows():
    """(point names, file path, function names) per table row of the
    catalog section."""
    with open(DOC) as handle:
        text = handle.read()
    section = text[text.index("## Fault-point catalog"):
                   text.index("## Workloads")]
    where = None            # directory, or file when the heading names one
    rows = []
    for line in section.splitlines():
        heading = HEADING.match(line)
        if heading:
            where = heading.group(1) + (".py" if heading.group(2) == ".py"
                                        else "")
            continue
        if not line.startswith("| `"):
            continue
        point_cell, where_cell = line.split("|")[1:3]
        names = CODE.findall(where_cell)
        files = [name for name in names if name.endswith(".py")]
        path = os.path.join(SRC, where, *files) if files \
            else os.path.join(SRC, where)
        functions = [name.rsplit(".", 1)[-1] for name in names
                     if not name.endswith(".py")]
        rows.append((CODE.findall(point_cell), path, functions))
    return rows


def test_every_catalogued_checkpoint_is_where_the_table_says():
    rows = catalog_rows()
    assert len(rows) >= 35, "the catalog tables were not parsed"
    for points, path, functions in rows:
        assert os.path.isfile(path), f"{points}: no such file {path}"
        with open(path) as handle:
            source = handle.read()
        assert functions, f"{points}: the row names no function"
        for point in points:
            assert f'"{point}"' in source, (
                f"checkpoint {point!r} is not in {os.path.relpath(path, SRC)}")
        for function in functions:
            assert re.search(rf"^\s*def {function}\(", source, re.M), (
                f"{points}: {os.path.relpath(path, SRC)} defines no "
                f"{function}()")
