"""Each module imports only the modules below it in the layer order."""

import ast
import dataclasses
import inspect
import pathlib

import numpy as np

import thinslab
from thinslab import propagator, symbols
from thinslab.spectral import Grid

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


def _imported_names(tree):
    """Yield (line, name) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} imports {name}"
                   for line, name in _imported_names(tree) if name not in read]
    assert not unused, unused


def test_only_harness_imports_json():
    # the artifact format is known to one module
    importers = [path.stem for path in sorted(PACKAGE.glob("*.py"))
                 if "json" in {name for _, name in _imported_names(ast.parse(path.read_text()))}]
    assert importers == ["harness"]


def test_only_symbols_reads_the_z_declarations():
    # how a slab's symbol is averaged is decided in symbols.averaged_symbol;
    # oneway passes its medium's own z_independent flag on to the spec it builds
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "symbols":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr in ("z_independent", "z_profile", "z_bandwidth")):
                owner = ast.unparse(node.value)
                if (path.stem, owner) != ("oneway", "medium"):
                    readers.append(f"{path.name}:{node.lineno} reads {owner}.{node.attr}")
    assert not readers, readers


def _scopes_naming(node, name, scope="<module>"):
    """Yield the innermost function around every read of ``name``, bare or as an attribute."""
    if isinstance(node, ast.FunctionDef):
        scope = node.name
    if (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _scopes_naming(child, name, scope)


def test_only_the_probe_and_the_top_rung_build_amplitude_rows():
    # every x-dependent slab is built from one phase-free amplitude table,
    # propagator._amplitude: the subgrid probe takes its rows and the top rung
    # its column blocks.  The amplitude carries no phase: only the top rung
    # multiplies its blocks by lattice roots of unity, gathered at their
    # exact exponents, and there is no second kernel table beside it
    namers = {f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
              for scope in _scopes_naming(ast.parse(path.read_text()), "_amplitude")}
    assert namers == {"propagator._probe", "propagator._full_band"}, namers
    assert not any(hasattr(propagator, name) for name in ("_kernel_blocks", "_kernel_table"))
    assert "einsum" not in (PACKAGE / "propagator.py").read_text()


def test_only_the_top_rung_names_the_phases():
    # the top rung phases each amplitude block by the lattice roots of unity
    # at their exact exponents, gathered per block: no cached phase table, no
    # skew index and no screening callback that hands the amplitude a mask
    for name in ("_phases", "_skew", "_screened"):
        namers = {f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
                  for scope in _scopes_naming(ast.parse(path.read_text()), name)}
        assert not namers, (name, namers)
        assert not hasattr(propagator, name), name


def test_only_the_probe_and_dense_assembly_read_the_diagonal_index():
    # a band is held as its diagonals D[j, i] = A_(b_j)[(i - b_j) mod n]:
    # _probe gathers them once from its subgrid FFT through the index of
    # _band_layout, and assemble_matrix scatters them through it.  The band
    # sum reads no index table: it multiplies D with the strided view of the
    # coefficients that _shifts takes
    namers = {f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
              for scope in _scopes_naming(ast.parse(path.read_text()), "_band_layout")}
    assert namers == {"propagator._probe", "propagator.assemble_matrix"}, namers
    for function in (propagator._frequency_sum, propagator._shifts):
        tree = ast.parse(inspect.getsource(function))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
            node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not named & {"_band_layout", "_skew", "take", "ravel_multi_index",
                            "indices"}, (function.__name__, named)


def test_one_builder_decides_how_a_slab_is_taken():
    # multiplier, band or full band is decided in propagator._operator alone,
    # for the march, dense assembly, the operator a(z, x, D_x) and the exact
    # multiplier evolution alike
    for name in ("_band_coefficients", "_multiplier", "_full_band"):
        namers = {f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
                  for scope in _scopes_naming(ast.parse(path.read_text()), name)}
        assert namers == {"propagator._operator"}, (name, namers)


def test_the_exact_evolution_is_one_slab_and_a_slab_checks_only_its_ordering():
    # _operator serves a slab and the bare operator a(z, x, D_x); the exact
    # multiplier evolution is the Averaged slab that apply_slab applies.  A
    # slab owns 0 <= z < z_prime and ansatz.Subdivision the step bound, so a
    # slab has no thickness bound of its own
    namers = {f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
              for scope in _scopes_naming(ast.parse(path.read_text()), "_operator")}
    assert namers == {"propagator._slab_operator", "propagator.apply_symbol_operator"}, namers
    tree = ast.parse(inspect.getsource(propagator.exact_multiplier_evolution))
    called = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert "apply_slab" in called, called
    assert [field.name for field in dataclasses.fields(propagator.SlabSpec) if field.init] == [
        "z", "z_prime", "spec", "variant"]


def test_each_variant_carries_its_own_rule():
    # a slab's p and table come from its variant's argument and table, the
    # only places in propagator that name the symbols functions a slab's
    # symbol is taken by: no dispatcher on the variant beside them, and
    # ansatz asks the variant
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        for name in ("slab_arguments", "_slab_symbol"):
            assert name not in defined and not any(_scopes_naming(tree, name)), (path.name, name)
    tree = ast.parse((PACKAGE / "propagator.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    rules = {"slab_argument": ["Frozen.argument", "Averaged.argument"],
             "eval_symbol": ["Frozen.table"], "averaged_symbol": ["Averaged.table"]}
    for name, namers in rules.items():
        assert [f"{cls.name}.{scope}" for cls in classes
                for scope in _scopes_naming(cls, name)] == namers, name
        assert len(list(_scopes_naming(tree, name))) == len(namers), name
    ansatz = ast.parse((PACKAGE / "ansatz.py").read_text())
    assert not [name for name in rules if any(_scopes_naming(ansatz, name))]


def test_the_band_cell_is_the_one_store_of_band_coefficients():
    # a slab's band coefficients live in propagator._band_cell, which only
    # _band_coefficients fills and evicts from and reset_counts empties: no
    # second memo, and no depth-free flag beside the slab argument of
    # symbols.slab_argument
    containers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            if isinstance(getattr(node, "value", None), (ast.Dict, ast.List, ast.Set)):
                containers |= {f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name)}
    assert {name for name in containers if name.startswith("propagator.")} == {
        "propagator.counters", "propagator._band_cell"}, containers
    namers = {f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
              for scope in _scopes_naming(ast.parse(path.read_text()), "_band_cell")}
    assert namers == {"propagator.<module>", "propagator.reset_counts",
                      "propagator._band_coefficients"}, namers
    assert not any(scope for path in sorted(PACKAGE.glob("*.py"))
                   for scope in _scopes_naming(ast.parse(path.read_text()), "depth_free"))
    assert not any(hasattr(module, name) for module in (propagator, symbols)
                   for name in ("depth_free", "_band_memo"))


def test_every_constructor_field_of_an_exported_dataclass_is_compared():
    # two values that compare equal are one value: a constructor field that
    # comparisons skip lets dataclasses.replace carry a stale setting into a
    # copy that compares equal to the value it no longer is.  What a type
    # derives at construction is an InitVar, which is no field
    skipped = [f"{name}.{field.name}" for name in thinslab.__all__
               if inspect.isclass(getattr(thinslab, name))
               and dataclasses.is_dataclass(getattr(thinslab, name))
               for field in dataclasses.fields(getattr(thinslab, name))
               if field.init and not field.compare]
    assert not skipped, skipped


# exported for library users although no other package module calls them
LIBRARY_API = {
    "read_field": "reads the TSLB snapshots that the one-way scenarios write",
    "residual_norm": "measures the Ansatz residual of acceptance criterion 6",
    "uniform_bound_check": "measures the composition stability of acceptance criterion 5",
    "semigroup_defect": "witnesses criterion 8 and drives the stability-norms workload",
    "available_symbols": "lists the registered symbol names for get_symbol",
}


def test_every_export_is_used_or_declared_library_api():
    # an export that only tests call is test code living in the library
    named = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    exported = [name for name in thinslab.__all__
                if inspect.isfunction(getattr(thinslab, name))
                or inspect.isclass(getattr(thinslab, name))]
    unused = [name for name in exported if name not in named and name not in LIBRARY_API]
    assert not unused, unused
    assert set(LIBRARY_API) <= set(exported) - named


# every functools.lru_cache in the package, with what makes it worth holding
CACHES = {
    "propagator._band_layout": "the subgrid index arrays every probe and dense band matrix of a grid reads",
    "propagator._cosine_transform": "the Chebyshev cosine-transform matrix every tile fit of a degree takes",
    "spectral._shift": "the fftshift index every forward and inverse transform gathers through",
    "spectral.xi_squared": "|xi|^2 of a grid, under <xi> and the one-way energy partition",
    "spectral._bracket_lattice": "<xi> of a grid, read by every H^s norm, weight and slab matrix norm",
    "symbols._gl_nodes": "the Gauss-Legendre rule of an order, read by every averaged slab of it",
    "symbols._weierstrass_weights": "the weights of a Hoelder exponent, read by every profile evaluation",
}


def _arrays(value):
    """Yield every ndarray in ``value``, a cached result: an array or a tuple of them."""
    if isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    else:
        assert isinstance(value, np.ndarray), type(value)
        yield value


def test_every_cache_is_declared_and_hands_out_read_only_arrays():
    # a cache hands every caller the same arrays, so one in-place update by
    # any caller (an H^s weight taken with **=, say) would corrupt every later
    # result built from it: each cached array is read-only
    cached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    "lru_cache" in ast.unparse(decorator) for decorator in node.decorator_list):
                cached.add(f"{path.stem}.{node.name}")
    assert cached == set(CACHES), cached ^ set(CACHES)
    grid, plane = Grid(64, 2 * np.pi), Grid(16, 2 * np.pi, dim=2)
    calls = {
        "propagator._band_layout": [(grid, 32), (plane, 8)],
        "propagator._cosine_transform": [(8,)],
        "spectral._shift": [(64, 1), (16, 2)],
        "spectral.xi_squared": [(grid,), (plane,)],
        "spectral._bracket_lattice": [(grid,), (plane,)],
        "symbols._gl_nodes": [(5,)],
        "symbols._weierstrass_weights": [(0.5,)],
    }
    writeable = [f"{name}{args}" for name in CACHES for args in calls[name]
                 for array in _arrays(getattr(getattr(thinslab, name.split(".")[0]),
                                              name.split(".")[1])(*args))
                 if array.flags.writeable]
    assert not writeable, writeable
