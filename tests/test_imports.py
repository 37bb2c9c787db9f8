"""Every name a module imports at module level is read in that module.

The check covers each package module but `__init__.py`, whose imports are
the public re-exports, and each test module.  A name bound by a module-level
`import` or `from ... import` counts as read when it appears as a name
anywhere in the module's code; a mention inside a string does not count.
`from __future__` imports bind no name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [path for path in (ROOT / "src" / "rieszlab").glob("*.py") if path.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
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
