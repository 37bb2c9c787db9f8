"""Every name a module imports at module level is read in that module, and
every private name a package module defines is named again in the package.

The import check covers each package module but `__init__.py`, whose imports
are the public re-exports, and each test module.  A name bound by a
module-level `import` or `from ... import` counts as read when it appears as a
name anywhere in the module's code; a mention inside a string does not count.
`from __future__` imports bind no name.  Every import in the package, at
module level or inside a function, names the package itself, a module of the
standard library or numpy, its one runtime dependency.  The private-name check covers the
module-level functions, classes and constants of every package module whose
names start with "_" but are not dunders: each must be read, as a name, an
attribute or an import, somewhere in the package besides its definition.
Machine epsilon, `np.finfo(...).eps` or `sys.float_info.epsilon`, is read in
`seqcore` alone, whose `_error_bar` is every threshold's rounding bar.  Files
are opened for reading by the builtin `open` in `matrixio._text` alone and
converted by `np.loadtxt` in `matrixio._read_table` alone, the one reader of
matrix and point-set files, whose cells are read one at a time, by
`matrixio._parse_cells`, only in `matrixio._name_error`, its one error path.
A matrix's nonzero pattern is decided by `np.bincount` in `seqcore._nonzeros`
alone, the one scan behind every singular value read without an SVD and
every monomial system's spectra, dual and residuals.
Every sampled Gabor system is built by `generators._gabor_twin`, called in
`scaling._sampled` alone, the one sampler, which refuses an aliasing rate first.
The minimal dual's recorded outcome, `duals._dual_outcome`, is read as a value
by `duals.minimal_dual`, `diagnostics.classify` and `cli._analysis_payload`
alone; `minimal_dual`, which raises a refusal, is called by `cli._cmd_dual`
alone, and only `cli.main` names `NoBiorthogonalSequenceError` in an `except`
clause or a `suppress` call.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rieszlab").glob("*.py"))
SOURCES = sorted(
    [path for path in PACKAGE if path.name != "__init__.py"] + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source):
    """The names that `source` imports at module level and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_every_module_is_checked():
    names = {path.name for path in SOURCES}
    assert {"cli.py", "seqcore.py", "test_imports.py", "conftest.py"} <= names
    assert "__init__.py" not in names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == [], path.name


def test_an_import_named_only_in_a_string_is_unused():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom a import b, c as d\n"
        "np.zeros(os.sep)\nd()\n'b'\n"
    )
    assert unused_imports(source) == ["b"]


def foreign_imports(source):
    """The top-level modules that `source` imports anywhere, sorted, but for the
    package itself (a relative import or `rieszlab`), the standard library and numpy."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - sys.stdlib_module_names - {"rieszlab", "numpy"})


def test_numpy_is_the_only_runtime_dependency():
    assert {path.name: foreign_imports(path.read_text()) for path in PACKAGE} == {
        path.name: [] for path in PACKAGE}


def test_a_foreign_import_is_seen():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy.linalg as la\nfrom . import scaling\nfrom .errors import E\n"
        "from rieszlab import cli\nimport scipy.linalg\n"
        "def f():\n    from pandas import DataFrame\n    import hypothesis as h\n"
    )
    assert foreign_imports(source) == ["hypothesis", "pandas", "scipy"]


def private_definitions(source):
    """The private, non-dunder names that `source` binds at module level by
    `def`, `class` or assignment."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in defined if name.startswith("_") and not name.endswith("__")}


def read_names(sources):
    """Every name that `sources` read: as a loaded name, an attribute or an import."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_private_definition_is_read_in_the_package():
    sources = [path.read_text() for path in PACKAGE]
    read = read_names(sources)
    unread = {
        f"{path.stem}.{name}"
        for path, source in zip(PACKAGE, sources)
        for name in private_definitions(source) - read
    }
    assert unread == set()


def test_a_private_name_only_defined_or_assigned_is_unread():
    source = "_A = 1\n_B = _A\n_C: int = 2\ndef _f(): pass\nclass _K: pass\n__all__ = []\n"
    assert private_definitions(source) == {"_A", "_B", "_C", "_f", "_K"}
    assert private_definitions(source) - read_names([source]) == {"_B", "_C", "_f", "_K"}


def test_only_seqcore_touches_the_spectral_record():
    touching = {
        path.name
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_record"
    }
    assert touching == {"seqcore.py"}


def reads_machine_epsilon(source):
    """Whether `source` reads `finfo(...).eps` or `float_info.epsilon`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "eps" and isinstance(node.value, ast.Call):
            func = node.value.func
            if getattr(func, "attr", getattr(func, "id", None)) == "finfo":
                return True
        if isinstance(node, ast.Attribute) and node.attr == "epsilon":
            if getattr(node.value, "attr", getattr(node.value, "id", None)) == "float_info":
                return True
    return False


def test_only_seqcore_reads_machine_epsilon():
    reading = {path.name for path in PACKAGE if reads_machine_epsilon(path.read_text())}
    assert reading == {"seqcore.py"}


@pytest.mark.parametrize("source, reads", [
    ("import numpy as np\nx = np.finfo(float).eps\n", True),
    ("from numpy import finfo\nx = 2 * finfo(np.float64).eps\n", True),
    ("import sys\nx = sys.float_info.epsilon\n", True),
    ("from sys import float_info\nx = float_info.epsilon\n", True),
    ("import sys, numpy as np\nx = np.finfo(float).tiny + sys.float_info.max\n", False),
])
def test_a_machine_epsilon_read_is_seen(source, reads):
    assert reads_machine_epsilon(source) is reads


#: The one site of each reading call: every file read is opened by `_text`,
#: every matrix or point-set file converted by `_read_table`, and a cell read
#: on its own only by the naming pass, `_name_error`.
READER_SITES = {
    "open": ["matrixio._text"],
    "loadtxt": ["matrixio._read_table"],
    "_parse_cells": ["matrixio._name_error"],
}


def call_sites(source, module, names, attributes):
    """(call, "module.function") for each call in `source` of a bare name in
    `names` or of an attribute in `attributes`, in source order."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in names:
                sites.append((func.id, f"{module}.{function}"))
            elif isinstance(func, ast.Attribute) and func.attr in attributes:
                sites.append((func.attr, f"{module}.{function}"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def reader_sites(source, module):
    """(call, "module.function") for each call of the builtin `open`, of a
    name `_parse_cells` or of an attribute `loadtxt` in `source`."""
    return call_sites(source, module, ("open", "_parse_cells"), ("loadtxt",))


def test_one_file_reader():
    found = {call: [] for call in READER_SITES}
    for path in PACKAGE:
        for call, site in reader_sites(path.read_text(), path.stem):
            found[call].append(site)
    assert found == READER_SITES


def test_a_reader_call_is_seen():
    source = (
        "import os, numpy as np\n"
        "def f(p):\n    with open(p) as h:\n        return np.loadtxt(h)\n"
        "def g(p):\n    return os.open(p, 0), os.fdopen(p), _parse_cells(p, 1, '')\n"
    )
    assert reader_sites(source, "m") == [("open", "m.f"), ("loadtxt", "m.f"), ("_parse_cells", "m.g")]


def sampler_sites(source, module):
    """(call, "module.function") for each call of `_gabor_twin` in `source`,
    by bare name or as an attribute."""
    return call_sites(source, module, ("_gabor_twin",), ("_gabor_twin",))


def test_one_sampler():
    found = [site for path in PACKAGE for site in sampler_sites(path.read_text(), path.stem)]
    assert found == [("_gabor_twin", "scaling._sampled")]


def test_a_second_sampler_call_is_seen():
    source = (
        "from . import generators\nfrom .generators import _gabor_twin\n"
        "def _sampled(points, grids):\n"
        "    return (generators._gabor_twin(points, grid) for grid in grids)\n"
        "def gabor(points, grid):\n"
        "    return _gabor_twin(points, grid), generators.gaussian_gabor(points, grid)\n"
    )
    assert sampler_sites(source, "m") == [("_gabor_twin", "m._sampled"), ("_gabor_twin", "m.gabor")]


def pattern_sites(source, module):
    """(call, "module.function") for each call of `bincount` in `source`,
    by bare name or as an attribute."""
    return call_sites(source, module, ("bincount",), ("bincount",))


def test_one_nonzero_pattern_test():
    sites = {site for path in PACKAGE for _, site in pattern_sites(path.read_text(), path.stem)}
    assert sites == {"seqcore._nonzeros"}


def test_a_second_pattern_test_is_seen():
    source = (
        "import numpy as np\nfrom numpy import bincount\n"
        "def _nonzeros(rows, cols):\n"
        "    return np.bincount(rows).max(), np.bincount(cols).max()\n"
        "def _norms(keys):\n    return bincount(keys)\n"
    )
    assert pattern_sites(source, "m") == [
        ("bincount", "m._nonzeros"), ("bincount", "m._nonzeros"), ("bincount", "m._norms")]


#: The readers of the minimal dual's outcome: its recorded value, read without
#: raising, and `minimal_dual`, which raises a refusal, called only where a
#: refusal is the command's exit code.
DUAL_READER_SITES = {
    "_dual_outcome": ["cli._analysis_payload", "diagnostics.classify", "duals.minimal_dual"],
    "minimal_dual": ["cli._cmd_dual"],
}


def dual_reader_sites(source, module):
    """(call, "module.function") for each call of `_dual_outcome` or
    `minimal_dual` in `source`, by bare name or as an attribute."""
    return call_sites(source, module, tuple(DUAL_READER_SITES), tuple(DUAL_READER_SITES))


def catch_sites(source, module, error="NoBiorthogonalSequenceError"):
    """"module.function" for each `except` clause or `suppress` call in
    `source` that names `error`, by bare name or as an attribute, in source order."""
    sites = []

    def name(node):
        return getattr(node, "id", getattr(node, "attr", None))

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler):
            caught = [node.type] if node.type else []
        elif isinstance(node, ast.Call) and name(node.func) == "suppress":
            caught = node.args
        else:
            caught = []
        if any(name(sub) == error for arg in caught for sub in ast.walk(arg)):
            sites.append(f"{module}.{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def test_the_dual_outcome_is_read_as_a_value():
    found = {call: [] for call in DUAL_READER_SITES}
    for path in PACKAGE:
        for call, site in dual_reader_sites(path.read_text(), path.stem):
            found[call].append(site)
    assert found == DUAL_READER_SITES
    assert [site for path in PACKAGE for site in catch_sites(path.read_text(), path.stem)] == [
        "cli.main"]


def test_a_raised_and_caught_dual_is_seen():
    source = (
        "from contextlib import suppress\nfrom . import duals, errors\n"
        "from .duals import _dual_outcome, minimal_dual\n"
        "def classify(seq):\n    return _dual_outcome(seq)\n"
        "def report(seq):\n    try:\n        return duals.minimal_dual(seq), duals._dual_outcome(seq)\n"
        "    except (ValueError, errors.NoBiorthogonalSequenceError):\n        return None\n"
        "def quiet(seq):\n    with suppress(NoBiorthogonalSequenceError):\n        minimal_dual(seq)\n"
        "def other(seq):\n    with suppress(ValueError):\n        pass\n"
        "    try:\n        pass\n    except:\n        pass\n"
    )
    assert dual_reader_sites(source, "m") == [
        ("_dual_outcome", "m.classify"), ("minimal_dual", "m.report"),
        ("_dual_outcome", "m.report"), ("minimal_dual", "m.quiet"),
    ]
    assert catch_sites(source, "m") == ["m.report", "m.quiet"]
