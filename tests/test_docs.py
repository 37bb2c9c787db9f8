"""Every backticked dotted reference in the docs names something that exists.

A reference is a backticked span that is a dotted name, such as
`generators._gabor_twin`, `rieszlab.cli.main` or `np.linalg.svd`, optionally
followed by a call, as in `generators.random_riesz(n, seed)`.  Its first part
is `rieszlab`, one of its modules by bare name, a public name of the package,
`np` or `math`.  The scan covers README.md and the docstrings of the package
modules and of tests/oracles.py, so a deleted or renamed private name cannot
linger in them.  The README's library-layout table names bare public names,
each in the row of its module; each must be an attribute of that module.

A bare backticked snake_case name with an underscore, such as `minimal_dual`,
must also exist: as an attribute of a package module or of a class one
defines, as a parameter of a function or method one defines, or on a short
allowlist of symbols and workload names.  tests/oracles.py may also name its
own functions.
"""

import argparse
import ast
import importlib
import inspect
import math
import pkgutil
import re
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

import oracles
import rieszlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(rieszlab.__file__).parent
REFERENCE = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*)?`")

#: Importing every module here also makes each an attribute of `rieszlab`.
MODULES = {
    info.name: importlib.import_module(f"rieszlab.{info.name}")
    for info in pkgutil.iter_modules([str(PACKAGE)]) if not info.name.startswith("_")
}
NAMESPACE = {
    "np": np,
    "math": math,
    "rieszlab": rieszlab,
    **{name: getattr(rieszlab, name) for name in rieszlab.__all__},
    **MODULES,
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


#: A bare backticked snake_case name with an underscore, leading ones included.
BARE_NAME = re.compile(r"`(_*[a-z][a-z0-9]*(?:_[a-z0-9]+)+)`")

#: Bare names that name nothing in the package: math symbols and a benchmark
#: workload.
BARE_ALLOWED = {"sigma_max", "sigma_min", "family_sweep"}


def defined_names(module):
    """The attributes of `module` and of each class it defines, and the
    parameters of each function it defines and of each class's methods."""
    names = set(vars(module))
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(value):
            names.update(dir(value), inspect.get_annotations(value))
            routines = [member for _, member in inspect.getmembers(value, inspect.isroutine)]
        else:
            routines = [value] if inspect.isroutine(value) else []
        for routine in routines:
            with suppress(TypeError, ValueError):  # a builtin without a signature
                names.update(inspect.signature(routine).parameters)
    return names


PACKAGE_NAMES = set().union(*map(defined_names, [rieszlab, *MODULES.values()]))
ORACLE_NAMES = defined_names(oracles)


def bare_name_exists(source, name):
    own = ORACLE_NAMES if source == "tests/oracles.py" else set()
    return name in PACKAGE_NAMES | own | BARE_ALLOWED


BARE_NAMES = sorted({(source, name) for source, text in documents() for name in BARE_NAME.findall(text)})


def test_bare_names_are_scanned():
    assert {"README.md", "src/rieszlab/seqcore.py", "tests/oracles.py"} <= {s for s, _ in BARE_NAMES}
    assert ("README.md", "minimal_dual") in BARE_NAMES


@pytest.mark.parametrize("source, name", BARE_NAMES, ids=[f"{s}:{n}" for s, n in BARE_NAMES])
def test_bare_name_exists(source, name):
    assert bare_name_exists(source, name), f"{source} names `{name}`, which does not exist"


@pytest.mark.parametrize("name", ["equivalent_inner_product", "gabor_refinement_study", "_real_twin"])
def test_a_deleted_bare_name_does_not_exist(name):
    assert not bare_name_exists("README.md", name)


def test_a_parameter_or_class_attribute_exists_and_an_oracle_only_in_oracles():
    # `check_shape` is a parameter of `read_matrix`, `from_columns` a method
    # of `VectorSequence`, `lambda_min` a field of `GramSpectrum`.
    for name in ("check_shape", "from_columns", "lambda_min"):
        assert bare_name_exists("README.md", name)
    assert bare_name_exists("tests/oracles.py", "format_complex")
    assert not bare_name_exists("README.md", "format_complex")


#: The README's flag table: its header, then one row per kind list.
FLAG_TABLE = "| Command and kind | Flags it reads (default) |\n|---|---|\n"
#: A backticked flag and its default in parentheses, if it has one shown.
FLAG = re.compile(r"`(--[\w-]+)`(?: \(([^)]*)\))?")


def flag_table_problems(text):
    """What the README's flag table gets wrong: each flag must be one of its
    command's parameter flags (flag -> parameter by its `dest`), its default
    the parameter's `_PARAMETER_DEFAULTS` entry (none shown for an empty
    one), and each kind's parameters those its record reads: `probeIndex`
    and the `reads` of a `_FAMILIES` record for `family`, the record's
    `reads` for `example`, a `_POINT_SETS` kind's `reads` for `gabor`."""
    scaling, cli = MODULES["scaling"], MODULES["cli"]
    [subparsers] = [action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    dests = {command: {flag: action.dest for action in parser._actions for flag in action.option_strings}
             for command, parser in subparsers.choices.items()}
    every = {"family": list(scaling._FAMILIES), "gabor": list(scaling._POINT_SETS)}
    aliases = cli._aliases()
    table = {}
    problems = []
    rows = text[text.index(FLAG_TABLE) + len(FLAG_TABLE):].split("\n\n")[0].splitlines()
    for row in rows:
        kinds_cell, flags_cell = row.strip("|").split("|")
        kinds = []
        for item in kinds_cell.split(","):
            words = item.strip().strip("`").split()
            if words[0] in ("family", "example", "gabor"):
                command = words[0]
            if words[0] == "every":
                kinds += [(command, kind) for kind in every[command]]
            elif len(words) > 1 or words[0] != command:
                kinds.append((command, aliases.get(words[-1], words[-1])))
        for flag, default in FLAG.findall(flags_cell):
            for command, kind in kinds:
                name = dests[command].get(flag)
                if name not in scaling._PARAMETER_DEFAULTS:
                    problems.append(f"{command} has no parameter flag {flag}")
                    continue
                expected = str(scaling._PARAMETER_DEFAULTS[name])
                if default != expected:
                    problems.append(f"{flag} defaults to {expected!r}, not {default!r}")
                table.setdefault((command, kind), set()).add(name)
    code = {("family", gid): {"probeIndex", *family.reads} for gid, family in scaling._FAMILIES.items()}
    code.update({("example", gid): set(family.reads)
                 for gid, family in scaling._FAMILIES.items() if family.alias and family.reads})
    code.update({("gabor", kind): set(reads) for kind, (reads, _, _) in scaling._POINT_SETS.items()})
    problems += [f"{' '.join(kind)} reads {sorted(code.get(kind, ()))}, not {sorted(table.get(kind, ()))}"
                 for kind in sorted(set(code) | set(table)) if code.get(kind) != table.get(kind)]
    return problems


def test_the_flag_table_is_the_parameter_table():
    assert flag_table_problems((ROOT / "README.md").read_text()) == []


@pytest.mark.parametrize("edit, problem", [
    (("`--nmax` (1)", "`--nmax` (2)"), "--nmax defaults to '1', not '2'"),
    (("`--max-index` (2), `--a` (1.0)", "`--max-index` (2)"),
     "gabor lattice reads ['a', 'b', 'halfWidth', 'maxIndex', 'samplesPerUnit'], "
     "not ['b', 'halfWidth', 'maxIndex', 'samplesPerUnit']"),
    (("`--nmax` (1)", "`--n-max` (1)"), "gabor has no parameter flag --n-max"),
    (("`family --gen riesz`,", "`family --gen riesz`, `weighted`,"),
     "family weightedPair reads ['probeIndex'], not ['probeIndex', 'seed']"),
    (("`gabor --set als`", "`gabor --set als`, `example riesz`"),
     "example has no parameter flag --nmax"),
], ids=["wrong-default", "missing-flag", "unknown-flag", "wrong-kind", "wrong-command"])
def test_a_wrong_flag_table_is_caught(edit, problem):
    text = (ROOT / "README.md").read_text()
    assert edit[0] in text
    assert problem in flag_table_problems(text.replace(edit[0], edit[1], 1))
