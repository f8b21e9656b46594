import ast
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

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


def test_exact_kernels_live_in_cyclotomic():
    # the convolutions of count vectors and the int64-or-Python-integers rule
    # have one home: every other module calls cyclotomic's kernels and
    # exact_dtype, and a batched step cannot fork a second circulant kernel
    # through einsum
    found = {}
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    for name, tree in trees.items():
        hits = sorted({"convolve", "as_strided", "einsum", "_INT64_LIMIT"} & _references(tree).keys())
        if hits and name != "cyclotomic.py":
            found[name] = hits
    assert not found, f"kernel internals outside cyclotomic.py: {found}"
    # one dense convolution in the program, cconv's: element products fold through it too
    cconv = next(node for node in trees["cyclotomic.py"].body if getattr(node, "name", None) == "cconv")
    assert sum(_references(tree)["convolve"] for tree in trees.values()) == _references(cconv)["convolve"] == 1


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _references(tree):
    """Counter of the identifiers a tree refers to: names, attributes,
    imported names and the words of its strings, docstrings left out."""
    docs = {id(node) for node in _docstrings(tree)}
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            out.update(re.findall(r"\w+", node.value))
    return out


def _unreferenced(user_dirs):
    """Top-level functions and classes, and non-dunder methods, of the
    program that nothing in the files of user_dirs refers to outside its
    own body, as "module.py:name"."""
    trees = {path: ast.parse(path.read_text()) for d in user_dirs for path in d.glob("*.py")}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    defs = [
        (path.name, node)
        for path in SRC.glob("*.py")
        for top in trees[path].body
        for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    return sorted(
        f"{name}:{node.name}"
        for name, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and total[node.name] <= _references(node)[node.name]
    )


def test_every_symbol_is_used():
    # a top-level function or class, or a non-dunder method, that nothing in
    # the source, the tests or the benchmark refers to outside its own body
    root = SRC.parent.parent
    unused = _unreferenced([SRC, root / "tests", root / "perfbench"])
    assert not unused, f"defined but never referenced: {unused}"


# program code that only tests call on purpose: the literal scan the
# eigentrace engine is tested against, and the byte-determinism API
_TEST_ONLY = {"dwork.py:eigentrace_scan", "harness.py:canonical_bytes"}


def test_every_symbol_has_a_program_user():
    # as test_every_symbol_is_used, with the tests no longer counted as users
    unused = _unreferenced([SRC, SRC.parent.parent / "perfbench"])
    assert set(unused) - _TEST_ONLY == set(), f"only tests refer to: {sorted(set(unused) - _TEST_ONLY)}"


def test_field_points_are_codes():
    # a field point is its integer code in every program API: only
    # finitefield.py names FqElem, the form of FqField.generator, and no
    # module forks on whether an argument carries a code attribute
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        hits = [] if path.name == "finitefield.py" else sorted({"FqElem"} & _references(tree).keys())
        hits += [
            f"hasattr at line {node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hasattr"
            and any(isinstance(arg, ast.Constant) and arg.value == "code" for arg in node.args[1:])
        ]
        if hits:
            found[path.name] = hits
    assert not found, f"field points as objects outside finitefield.py: {found}"


def test_program_import_leaves_openssl_unloaded():
    # hashlib loads OpenSSL's libcrypto (about 3.7 MiB resident); only the
    # digest of hyper-cross needs it, and it imports hashlib itself
    code = "import sys, dworkbench.cli, dworkbench.harness; print('_hashlib' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
