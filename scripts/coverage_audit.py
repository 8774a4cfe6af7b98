#!/usr/bin/env python3
"""List the statements of src/gaborlab that no tier-1 test runs.

Tier-1 runs once with a generated ``sitecustomize.py`` first on
``PYTHONPATH``.  It records, through ``sys.settrace`` and
``threading.settrace``, the executed lines of src/gaborlab in every Python
process that starts with that path: pytest itself and the CLI subprocesses
that tests spawn with the inherited ``PYTHONPATH``.  Each process writes its
lines when it exits normally.

A statement counts as run when one of its own lines ran (a compound
statement's own lines are its header, not its body).  Function, class and
import statements and docstrings do not count.  Each statement never run is
printed as ``file:line statement``; the count goes to stderr.  Pytest's
cache, Hypothesis's database, bytecode and the tests' temporary files go to a
temporary directory that is removed afterwards.  The exit code is pytest's.

    python scripts/coverage_audit.py
"""

import ast
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gaborlab")

TRACER = """\
import atexit, json, os, sys, threading

_PACKAGE = {package!r} + os.sep
_lines = {{}}


def _line(frame, event, arg):
    if event == "line":
        _lines[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    if not frame.f_code.co_filename.startswith(_PACKAGE):
        return None
    _lines.setdefault(frame.f_code.co_filename, set())
    return _line(frame, event, arg)


@atexit.register
def _dump():
    sys.settrace(None)
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), f"lines-{{os.getpid()}}.json")
    with open(out, "w") as fh:
        json.dump({{path: sorted(lines) for path, lines in _lines.items()}}, fh)


sys.settrace(_call)
threading.settrace(_call)
"""

UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
BLOCKS = ("body", "orelse", "finalbody", "handlers")  # the nested statements of a statement


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        and parent.body[0] is node
    )


def statements(source: str) -> list[tuple[int, set[int]]]:
    """(first line, own lines) of each counted statement of a module."""
    found = []

    def nested(node: ast.AST) -> list[ast.AST]:
        return [child for block in BLOCKS for child in getattr(node, block, [])]

    def visit(parent: ast.AST) -> None:
        for node in nested(parent):
            if (isinstance(node, ast.stmt) and not isinstance(node, UNCOUNTED)
                    and not _is_docstring(node, parent)):
                own = set(range(node.lineno, node.end_lineno + 1))
                for child in nested(node):
                    own -= set(range(child.lineno, child.end_lineno + 1))
                found.append((node.lineno, own or {node.lineno}))
            visit(node)

    visit(ast.parse(source))
    return sorted(found, key=lambda s: s[0])


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="coverage-audit-") as tmp:
        hook = os.path.join(tmp, "hook")
        os.makedirs(hook)
        with open(os.path.join(hook, "sitecustomize.py"), "w") as fh:
            fh.write(TRACER.format(package=PACKAGE))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [hook, os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
            ),
            PYTHONPYCACHEPREFIX=os.path.join(tmp, "pycache"),
            HYPOTHESIS_STORAGE_DIRECTORY=os.path.join(tmp, "hypothesis"),
        )
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "--basetemp", os.path.join(tmp, "pytest")]
        status = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        ran: dict[str, set[int]] = {}
        for name in os.listdir(hook):
            if name.startswith("lines-"):
                with open(os.path.join(hook, name)) as fh:
                    for path, lines in json.load(fh).items():
                        ran.setdefault(path, set()).update(lines)

    total = unrun = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read()
        text = source.splitlines()
        hit = ran.get(path, set())
        for first, own in statements(source):
            total += 1
            if not own & hit:
                unrun += 1
                print(f"{name}:{first} {text[first - 1].strip()}")
    print(f"{unrun} of {total} statements never run", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
