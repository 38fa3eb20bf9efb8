"""Guards: every function, class and method in ``src/tdcat`` has a caller
outside tests, and every defaulted parameter has a caller that sets it.

Reference code that only tests call belongs in ``tests/oracles.py``.  A
function or class counts as used when the source of ``src/tdcat``,
``scripts/`` or ``perfbench/`` mentions it as a name, an attribute, an import
or an identifier string (the benchmark binds traced methods by their string
names).  A method or property counts only when it is reached as an attribute
or named in a string: a local or a parameter of the same name is not a use.
The package's ``__init__.py`` does not count: a re-export there is not a use.
Matching is by bare name, so a name shared with any other use passes.

An option that only tests set is a constant: a defaulted parameter counts as
set when a call in those files passes it, by keyword or by position.  Calls
match by bare name, a class's ``__init__`` by the class name, and a call that
forwards ``*args`` or ``**kwargs`` sets every parameter.
"""

import ast
import math
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


def source_files():
    """The files whose uses count: ``src/tdcat`` (not ``__init__.py``), ``scripts``
    and ``perfbench``."""
    return [
        *(p for p in (ROOT / "src" / "tdcat").glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "scripts").glob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
    ]


def used_names():
    """(names, members): every name used at all, and those reached as attributes or strings."""
    names, members = set(), set()
    for path in source_files():
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


def defaulted_parameters():
    """(qualified name, bare callee name, position, parameter) of every defaulted
    parameter of a ``src/tdcat`` function or method.

    A method's position does not count ``self``, a keyword-only parameter's is
    infinite, and an ``__init__``'s callee is its class.
    """
    out = []
    for path in sorted((ROOT / "src" / "tdcat").glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                functions = [
                    (f"{node.name}.{m.name}", node.name if m.name == "__init__" else m.name, m, 1)
                    for m in node.body if isinstance(m, ast.FunctionDef)
                ]
            else:
                continue
            for qualified, callee, fn, skip in functions:
                a = fn.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for k, arg in enumerate(positional[first:], first):
                    out.append((qualified, callee, k - skip, arg.arg))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((qualified, callee, math.inf, arg.arg))
    return out


def calls_by_name():
    """For each bare callee name, its calls' (positional count, keyword names);
    None for a call that forwards ``*args`` or ``**kwargs``."""
    calls = {}
    for path in source_files():
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                forwards = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords
                )
                calls.setdefault(name, []).append(
                    None if forwards else (len(node.args), {k.arg for k in node.keywords})
                )
    return calls


def test_every_defaulted_parameter_is_set_by_some_caller():
    calls = calls_by_name()
    never_set = [
        f"{qualified}({param}=)"
        for qualified, callee, position, param in defaulted_parameters()
        if qualified.split(".")[0] != "CurveSet"  # kept as KEPT_FOR_CURVESET is
        and not any(
            call is None or param in call[1] or call[0] > position
            for call in calls.get(callee, [])
        )
    ]
    assert not never_set, f"only tests set these; make them constants: {never_set}"
