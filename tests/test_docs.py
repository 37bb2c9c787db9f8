"""Every backticked dotted reference in the docs names something that exists.

A reference is a backticked span that is a dotted name, such as
`generators._gabor_twin`, `rieszlab.cli.main` or `np.linalg.svd`, optionally
followed by a call, as in `generators.random_riesz(n, seed)`.  Its first part
is `rieszlab`, one of its modules by bare name, a public name of the package,
or `np`.  The scan covers README.md and the docstrings of the package
modules and of tests/oracles.py, so a deleted or renamed private name cannot
linger in them.  The README's library-layout table names bare public names,
each in the row of its module; each must be an attribute of that module.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import rieszlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(rieszlab.__file__).parent
REFERENCE = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*)?`")

#: Importing every module here also makes each an attribute of `rieszlab`.
NAMESPACE = {
    "np": np,
    "rieszlab": rieszlab,
    **{name: getattr(rieszlab, name) for name in rieszlab.__all__},
    **{info.name: importlib.import_module(f"rieszlab.{info.name}")
       for info in pkgutil.iter_modules([str(PACKAGE)]) if not info.name.startswith("_")},
}


def docstrings(path):
    tree = ast.parse(path.read_text())
    nodes = [tree, *(node for node in ast.walk(tree)
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)))]
    return [doc for doc in map(ast.get_docstring, nodes) if doc]


def documents():
    yield "README.md", (ROOT / "README.md").read_text()
    for path in [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "oracles.py"]:
        for doc in docstrings(path):
            yield str(path.relative_to(ROOT)), doc


def resolves(reference):
    head, *parts = reference.split(".")
    if head not in NAMESPACE:
        return False
    obj = NAMESPACE[head]
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


REFERENCES = sorted({(source, ref) for source, text in documents() for ref in REFERENCE.findall(text)})


def test_every_kind_of_document_is_scanned():
    sources = {source for source, _ in REFERENCES}
    assert {"README.md", "src/rieszlab/seqcore.py", "tests/oracles.py"} <= sources


@pytest.mark.parametrize("source, reference", REFERENCES, ids=[f"{s}:{r}" for s, r in REFERENCES])
def test_reference_resolves(source, reference):
    assert resolves(reference), f"{source} names `{reference}`, which does not exist"


@pytest.mark.parametrize(
    "reference", ["seqcore._real_twin", "generators._no_such_name", "rieszlab.no_such_module", "x.y"]
)
def test_a_missing_name_does_not_resolve(reference):
    assert not resolves(reference)


#: A row of the README's library-layout table: its module and its contents cell.
TABLE_ROW = re.compile(r"^\| `rieszlab\.(\w+)` *\|(.*)\|$", re.MULTILINE)

#: (module, name) for each backticked identifier in the table; the cli row's
#: `rieszlab` is the command's name.
TABLE_NAMES = sorted(
    (module, name)
    for module, cell in TABLE_ROW.findall((ROOT / "README.md").read_text())
    for name in re.findall(r"`([A-Za-z_]\w*)`", cell) if name != "rieszlab"
)


def test_the_layout_table_is_scanned():
    assert {module for module, _ in TABLE_NAMES} >= {"seqcore", "diagnostics", "duals", "scaling"}


@pytest.mark.parametrize("module, name", TABLE_NAMES, ids=[f"{m}.{n}" for m, n in TABLE_NAMES])
def test_layout_table_name_exists(module, name):
    assert hasattr(NAMESPACE[module], name), f"README's {module} row names a missing `{name}`"
