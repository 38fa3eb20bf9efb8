"""Guard: every function, class and method in ``src/tdcat`` has a caller outside tests.

Reference code that only tests call belongs in ``tests/oracles.py``.  A
function or class counts as used when the source of ``src/tdcat``,
``scripts/`` or ``perfbench/`` mentions it as a name, an attribute, an import
or an identifier string (the benchmark binds traced methods by their string
names).  A method or property counts only when it is reached as an attribute
or named in a string: a local or a parameter of the same name is not a use.
The package's ``__init__.py`` does not count: a re-export there is not a use.
Matching is by bare name, so a name shared with any other use passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# CurveSet stays only because the benchmark traces ``CurveSet.append_match``;
# its read methods go with the class once the benchmark drops that target.
KEPT_FOR_CURVESET = {"CurveSet.coverage", "CurveSet.curve", "CurveSet.curves"}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def defined_names():
    """(file, qualified name) of every module-level def and class, and their methods."""
    out = []
    for path in sorted((ROOT / "src" / "tdcat").glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        out.append((path.name, f"{node.name}.{member.name}"))
    return out


def used_names():
    """(names, members): every name used at all, and those reached as attributes or strings."""
    names, members = set(), set()
    files = [
        *(p for p in (ROOT / "src" / "tdcat").glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "scripts").glob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
    ]
    for path in files:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                members.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    members.add(node.value)
    return names | members, members


def test_every_src_name_is_used_outside_tests():
    names, members = used_names()
    unused = [
        f"{path}:{name}"
        for path, name in defined_names()
        if name not in KEPT_FOR_CURVESET
        and not (name.split(".")[-1].startswith("__") and name.endswith("__"))
        and name.split(".")[-1] not in (members if "." in name else names)
    ]
    assert not unused, f"only tests use these; move them to tests/oracles.py: {unused}"
