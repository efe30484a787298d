"""The package's import graph: which module may import which.

Each module's package imports are read from its source with ``ast``, so an
import inside a function counts too.  ``__init__`` only re-exports and is left
out; ``from . import __version__`` is recorded as an import of ``__init__``.
"""

import ast
from pathlib import Path

import qpmatch

PACKAGE = Path(qpmatch.__file__).parent

EXPECTED = {
    "errors": set(),
    "text": {"errors"},
    "simulation": {"errors"},
    "circuits": {"errors"},
    "search": {"errors", "simulation", "text"},
    "cli": {"__init__", "circuits", "errors", "search", "text"},
}


def package_imports(path: Path) -> set:
    """The package modules that the module at ``path`` imports, by module name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.add(node.module or "__init__")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qpmatch":
            found.add(node.module.partition(".")[2] or "__init__")
        elif isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[2] or "__init__" for alias in node.names
                         if alias.name.split(".")[0] == "qpmatch")
    return found


def test_every_module_has_an_expected_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(EXPECTED)


def test_modules_import_only_their_lower_layers():
    actual = {name: package_imports(PACKAGE / f"{name}.py") for name in EXPECTED}
    assert actual == EXPECTED


def test_the_reader_sees_every_import_form(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from . import __version__\n"
        "from .text import Text\n"
        "import qpmatch.search\n"
        "from qpmatch.circuits import Gate\n"
        "def late():\n"
        "    from .simulation import init_state\n"
        "import numpy\n"
    )
    assert package_imports(source) == {"__init__", "text", "search", "circuits", "simulation"}
