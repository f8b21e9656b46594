import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dworkbench"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name may appear only inside a string annotation
    strings = " ".join(
        node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    unused = sorted(n for n in imported - used if not re.search(rf"\b{n}\b", strings))
    assert not unused, f"{path.name} imports {unused} without using them"


@pytest.mark.parametrize("name", ["harness.py", "dwork.py", "hypergeometric.py"])
def test_verdict_modules_use_no_float_embeddings(name):
    # every verdict is exact: floats from embeddings or transforms stay in printed output
    tree = ast.parse((SRC / name).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {part for alias in node.names for part in alias.name.split(".")}
            names |= set((getattr(node, "module", None) or "").split("."))
    found = sorted(names & {"embed", "abs2", "fft"})
    assert not found, f"{name} references {found}"
