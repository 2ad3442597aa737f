"""Each module imports only the modules below it in the layer order."""

import ast
import pathlib

import thinslab

# the package __init__ re-exports the library layers and none of harness or cli
ORDER = ["spectral", "symbols", "propagator", "ansatz", "oneway", "__init__", "harness", "cli"]
PACKAGE = pathlib.Path(thinslab.__file__).parent


def _relative_imports(tree):
    """Yield (line, module) for every relative import, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.lineno, node.module.split(".")[0]
            else:
                # `from . import name` names a module or a name the __init__ defines
                for alias in node.names:
                    yield node.lineno, alias.name if alias.name in ORDER else "__init__"


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(ORDER)


def test_imports_point_down_the_layer_order():
    wrong = []
    for path in sorted(PACKAGE.glob("*.py")):
        rank = ORDER.index(path.stem)
        for line, target in _relative_imports(ast.parse(path.read_text())):
            if ORDER.index(target) >= rank:
                wrong.append(f"{path.name}:{line} imports {target}")
    assert not wrong, wrong
