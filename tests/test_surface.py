"""The public surface is what the library itself or the acceptance suite uses.

A name in a module's `__all__` stays only if some top-level statement of
`src/` other than its own definition reads it, or `test_acceptance.py`
imports it.  Second names and helpers that only their own tests call
belong in `tests/oracles.py`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cumulantcalc"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

#: the bijective layer waits for its catalog rows (ROADMAP item 3)
ALLOWED_UNUSED = {"phi"}


def _defines(node, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    return isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == name


def _reads(node) -> set[str]:
    """The names and attributes that `node` loads."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def _exports(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _acceptance_imports() -> set[str]:
    tree = ast.parse(ACCEPTANCE.read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cumulantcalc")
        for alias in node.names
    }


def test_every_export_has_a_reader():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    imported = _acceptance_imports()
    unread = []
    for module, tree in trees.items():
        for name in _exports(tree):
            if name in imported or name in ALLOWED_UNUSED:
                continue
            if not any(
                name in _reads(node)
                for other in trees.values()
                for node in other.body
                if not _defines(node, name)
            ):
                unread.append(f"{module}.{name}")
    assert not unread, f"exports with no reader: {unread}"
