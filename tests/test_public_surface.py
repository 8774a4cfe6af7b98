"""Every public name of the package is read by the package, a script, perfbench or the gate.

A name that only tests read is a test helper, not part of the package: it
belongs in the tests (see ``oracles.py``) or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaborlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = [
    *MODULES,
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted(p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_perfbench.py"),
    ROOT / "tests" / "test_acceptance.py",
]


def _public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def test_every_public_name_has_a_reader():
    read = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name in _public_names(ast.parse(path.read_text(), str(path)))
        if name not in read
    ]
    assert not unread, f"public names that nothing outside the tests reads: {unread}"
