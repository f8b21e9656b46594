import ast
import json
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
    # every verdict is exact: floats from embeddings or transforms stay in
    # printed output, and float64 products stay inside cyclotomic's kernels
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
    found = sorted(names & {"embed", "abs2", "fft", "float64", "float32"})
    assert not found, f"{name} references {found}"


def test_exact_kernels_live_in_cyclotomic():
    # the convolutions of count vectors and the float64-int64-or-Python-
    # integers rule have one home: every other module calls cyclotomic's
    # kernels, which size their own results, so no engine picks a width
    # (exact_dtype) or gathers windows itself, and a batched step cannot
    # fork a second circulant kernel through einsum
    found = {}
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    internals = {"convolve", "as_strided", "sliding_window_view", "einsum", "exact_dtype", "_INT64_LIMIT", "_FLOAT_EXACT"}
    for name, tree in trees.items():
        hits = sorted(internals & _references(tree).keys())
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


# the README's commands, the other branches of hyper trace (the naive route
# at E = 1 only: at E = 2 and q = 29 it takes about a minute) and of dwork
# trace, and the campaign with psi2, written to an outdir
_RUNS = [
    "char gauss --q 29 --chi-order 7 --chi-exp 1 --json",
    "weights build-v --n 4 --N 9",
    "weights hyper-data --n 2 --N 7",
    "hyper trace --q 29 --n 2 --N 7 --method conv --t 2 --json",
    "hyper trace --q 29 --n 2 --N 7 --method conv --t 2 --E 2 --json",
    "hyper trace --q 29 --n 2 --N 7 --method naive --t 2 --json",
    "dwork trace --N 7 --n 2 --q 29 --t all --json",
    "dwork trace --N 7 --n 2 --q 29 --t 3 --json",
    "dwork count --N 3 --q 7 --t 3 --ext 1",
    "signs check --l 5 --seed 0 --count 100 --json",
    "verify katz --n 2 --N 7 --q 29 --json {tmp}/out.json",
    "verify n3 --q 7",
    "verify det-trad --q 29 --k 2 --seed 0",
    "verify det-hcan --q 29 --n 2 --N 7",
    "verify all --config {tmp}/campaign.txt",
]

# runs _RUNS and katz past int64 in a fresh process, so no cache hides a
# call; the global trace hook returns None, so only call events are seen,
# and it is set before the import, so a decorator applied there is entered
_RECORD = """
import contextlib, io, json, os, sys, tempfile
seen = set()
sys.settrace(lambda frame, event, arg: seen.add(frame.f_code))
from dworkbench import cli, harness
with tempfile.TemporaryDirectory() as tmp:
    with open(os.path.join(tmp, "campaign.txt"), "w") as fh:
        fh.write(f"checks = {' '.join((*harness._DEFAULT_CHECKS, 'psi2'))}\\noutdir = {tmp}/reports\\n")
    for cmd in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(cmd.format(tmp=tmp).split()) == 0, cmd
    harness.katz_check(2, 17, 103)
sys.settrace(None)
src = os.path.dirname(harness.__file__)
print(json.dumps([f"{os.path.basename(c.co_filename)}:{c.co_qualname}" for c in seen if os.path.dirname(c.co_filename) == src]))
"""

# program functions that no run enters, each with the reason it stays
_NOT_ENTERED = {
    "dwork.py:eigentrace_scan": "the defining scan, the literal reference the eigentrace engine is tested against",
    "dwork.py:_torus_scan": "eigentrace_scan's torus part",
    "dwork.py:_boundary_scan": "eigentrace_scan's boundary part",
    "characters.py:AddChar.exp_of": "the literal reference test_characters checks gauss_exponents against",
    "cyclotomic.py:CycloElem.coeffs": "the tests' coefficient accessor",
    "harness.py:CheckResult.canonical_bytes": "the byte-determinism API the tests and golden digests read",
    "harness.py:KatzReport.to_result": "called by perfbench/run.py and tests/test_acceptance.py",
    "dwork.py:boundary_term": "a span target of perfbench/spans.py",
    "hypergeometric.py:det_via_newton": "a span target of perfbench/spans.py",
    "finitefield.py:FqField.generator": "read by perfbench/run.py",
}


def test_every_function_is_entered_by_a_program_run():
    # a traffic guard: the name match of test_every_symbol_has_a_program_user
    # passes a method when another name shares its spelling; here a function
    # or non-dunder method counts as used only if a run enters it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _RECORD, json.dumps(_RUNS)], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    entered = set(json.loads(out.stdout))
    defined = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef):
                defined.add(f"{path.name}:{top.name}")
            elif isinstance(top, ast.ClassDef):
                defined |= {f"{path.name}:{top.name}.{node.name}" for node in top.body if isinstance(node, ast.FunctionDef)}
    never = {name for name in defined - entered if not re.search(r"\.__\w+__$", name)}
    assert sorted(never - _NOT_ENTERED.keys()) == [], "no run enters these"
    assert sorted(_NOT_ENTERED.keys() - never) == [], "listed as never entered, but entered or gone"


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


def _scoped(node, scope=""):
    """(qualified name of the enclosing function or class, node) for every
    node below node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield inner, child
        yield from _scoped(child, inner)


# the places that may ask a field its degree, each with the reason it stays
_DEGREE_SITES = {
    "hypergeometric.py:HyperSpec.extension": "degree 1 is the base field itself, and only a prime base field is extended",
}


def test_only_the_extension_compares_a_degree():
    # a prime field is the degree-1 case F_p[x]/(x - g) in construction and
    # in arithmetic: every field operation has one body for every degree,
    # and no caller forks on the degree, so a degree (m or .m) is compared
    # with 1 or 2 only at the listed sites
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            degree = any(getattr(o, "id", getattr(o, "attr", None)) == "m" for o in operands)
            small = any(isinstance(o, ast.Constant) and o.value in (1, 2) and type(o.value) is int for o in operands)
            if degree and small:
                found.setdefault(f"{path.name}:{scope}", []).append(node.lineno)
    assert sorted(found.keys() - _DEGREE_SITES.keys()) == [], f"degree forks: {found}"
    assert sorted(_DEGREE_SITES.keys() - found.keys()) == [], "listed as comparing a degree, but no longer does"


# the modules whose draws take a caller's seed
_SEEDED = {"harness.py", "pairings.py"}


def test_only_seeded_draws_import_random():
    # a field, a table or a verdict is built by a fixed rule: only the
    # campaign's and the signs check's draws, whose seed the caller passes,
    # import random
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(alias.name == "random" for alias in node.names):
                found.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                found.add(path.name)
    assert sorted(found - _SEEDED) == [], "modules that draw without a caller's seed"
    assert sorted(_SEEDED - found) == [], "listed as seeded, but no longer import random"


def test_program_import_leaves_openssl_unloaded():
    # hashlib loads OpenSSL's libcrypto (about 3.7 MiB resident); only the
    # digest of hyper-cross needs it, and it imports hashlib itself
    code = "import sys, dworkbench.cli, dworkbench.harness; print('_hashlib' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
