import ast
import warnings
from pathlib import Path

import nildist

SOURCES = sorted(Path(nildist.__file__).parent.glob("*.py"))


def test_sources_compile_without_warnings():
    # an invalid escape such as "\c" is only a warning at compile time, and
    # the cached bytecode hides it on later imports; compile from source
    assert SOURCES
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_every_top_level_definition_is_used():
    # a top-level def or class is read somewhere in the package (a Name or
    # an Attribute outside its own body) or exported; anything else is dead
    # code, and logic kept only for the tests belongs in tests/oracles.py
    definitions, reads = [], {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        definitions += [
            (path.name, node)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.setdefault(node.id, set()).add(node)
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add(node)
    dead = [
        f"{filename}: {node.name}"
        for filename, node in definitions
        if node.name not in nildist.__all__
        and not reads.get(node.name, set()) - set(ast.walk(node))
    ]
    assert not dead, dead
