"""Each module of normlds imports only modules below it in one order.

exactlinalg < numberfield < coordseq < basisforge < dkseq < cli: exact integer
algebra, field arithmetic, coordinate sequences, basis constructions, the
congruence sequence, the command line. The modules are read with ast, not
imported. __init__ is no layer: it holds the package docstring and
__version__, and no import or __all__, so every caller imports the module
that holds a name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "normlds"
LAYERS = ["exactlinalg", "numberfield", "coordseq", "basisforge", "dkseq", "cli"]


def package_imports(tree):
    """The modules of the package that tree imports, relatively or as normlds.<module>."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                names.update(alias.name for alias in node.names)
            elif node.level == 1:  # from .x import y
                names.add(node.module.split(".")[0])
            elif node.level == 0 and node.module == "normlds":  # from normlds import x
                names.update(alias.name for alias in node.names)
            elif node.level == 0 and node.module.startswith("normlds."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("normlds."):
                    names.add(alias.name.split(".")[1])
    return names


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_init_imports_and_exports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    stored = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert imports == []
    assert "__all__" not in stored


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_layers_below_it(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    below = set(LAYERS[: LAYERS.index(module)])
    assert package_imports(tree) <= below, f"{module} imports {package_imports(tree) - below}"


def test_the_guard_sees_every_import_form():
    source = (
        "from . import cli\n"
        "from .dkseq import dk_sequence\n"
        "from normlds import coordseq\n"
        "from normlds.basisforge import lds_basis\n"
        "import normlds.numberfield\n"
        "from math import gcd\n"
    )
    assert package_imports(ast.parse(source)) == {
        "cli", "dkseq", "coordseq", "basisforge", "numberfield"
    }
