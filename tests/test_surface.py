"""The public surface is what the library itself or the acceptance suite uses.

A name in a module's `__all__` stays only if some top-level statement of
`src/` other than its own definition reads it, or `test_acceptance.py`
imports it.  A public method, property or classmethod of a class in
`src/` stays only if `src/` reads its name as an attribute outside every
function of that name (its own body and same-named members of other
classes do not count), or `test_acceptance.py` does; inside a class,
`self.name` and `cls.name` count only for that class, and a read taken
off a class name (`SetPartition.from_text`) only for the class named.  A
method that is not a property counts as read only where the read is
called or taken off a class name, so a data field that shares its name
(`report.identity`) does not keep it.  Second names and helpers that
only their own tests call belong in `tests/oracles.py`.

The same scan holds `src/` to exact arithmetic: it may hold no float
literal, no call to `float` and no `isclose`; and it holds every module of
`src/` but the package's `__init__` to reading each name it imports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cumulantcalc"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

#: the bijective layer waits for its catalog rows (ROADMAP item 3)
ALLOWED_UNUSED = {"phi"}

#: public members kept without a reader ("Class.member"); none today
ALLOWED_UNUSED_MEMBERS: set[str] = set()


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


def _attribute_reads(tree, classes) -> list[tuple[str | None, str, frozenset, bool]]:
    """(owner, attribute, enclosing function names, method-like) of each
    attribute load in `tree`; the owner is the enclosing class of a
    `self.x` or `cls.x` load, the class of a `Class.x` load taken off one
    of `classes` by name, else None (any class).  A load is method-like
    when it is called or taken off a class name."""
    out = []
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}

    def visit(node, cls, funcs):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs = funcs | {node.name}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            named = node.value.id if isinstance(node.value, ast.Name) else None
            owner = cls if named in ("self", "cls") else named if named in classes else None
            method_like = id(node) in called or named in classes
            out.append((owner, node.attr, funcs, method_like))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, funcs)

    visit(tree, None, frozenset())
    return out


def _is_property(member: ast.FunctionDef) -> bool:
    return any(getattr(d, "id", None) == "property" for d in member.decorator_list)


def test_every_public_member_has_a_reader():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    classes = {cls.name for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)}
    reads = [read for tree in trees for read in _attribute_reads(tree, classes)]
    accepted = _attribute_reads(ast.parse(ACCEPTANCE.read_text()), classes)
    unread = []
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                name = f"{cls.name}.{member.name}"
                if name in ALLOWED_UNUSED_MEMBERS:
                    continue
                any_read = _is_property(member)
                if any(
                    attr == member.name and owner in (None, cls.name) and (any_read or method_like)
                    for owner, attr, _, method_like in accepted
                ):
                    continue
                if not any(
                    attr == member.name and owner in (None, cls.name) and member.name not in funcs
                    and (any_read or method_like)
                    for owner, attr, funcs, method_like in reads
                ):
                    unread.append(name)
    assert not unread, f"public members with no reader: {unread}"


def test_no_floating_point_in_src():
    # exact arithmetic throughout: no float literal, no float() call and no
    # isclose anywhere in src/ (an annotation naming float is not a call)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.name}:{node.lineno}: float literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{path.name}:{node.lineno}: float() call")
            elif "isclose" in (getattr(node, "id", None), getattr(node, "attr", None),
                               getattr(node, "name", None)):
                found.append(f"{path.name}:{node.lineno}: isclose")
    assert not found, found


def test_every_import_in_src_is_read():
    # `__init__` imports to re-export; `from __future__` binds no name
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        unread.append(f"{path.name}:{node.lineno}: {name}")
    assert not unread, f"imports with no reader: {unread}"
