"""Package hygiene: exported names resolve, no module imports what it does
not use, every private module-level name is used, only grids.py reads the
node spacing, only cli.main builds, writes and prints a command's inputs
and outputs, only cli.py writes JSON and touches the file system, opening
each output once through its mkstemp descriptor, a sampled function stores
its values alone, each model is one frozen dataclass, cli.py reads the model catalog
from models.MODELS, the construction in factor.py never reads the
eigensolver or the checks built on it, verify.py reads only the finished
factorization result from factor.py and nothing from grids.py, the package
import leaves out cli.py, one marched auxiliary solution serves every
model, and no function, class or method is there for the tests alone."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import pdmfactor
from pdmfactor.grids import SampledFunction
from pdmfactor.models import MODELS, PdmModel

SRC = Path(pdmfactor.__file__).resolve().parent
# __init__.py only re-exports; its imports are checked to resolve instead
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _imported_names(tree):
    """The local name each import statement binds, mapped to its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _imported_module_parts(tree):
    """Every dotted part of every module an import statement names."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            # "from . import spectra" names the module as an alias
            modules |= {node.module} if node.module else {a.name for a in node.names}
    return {part for name in modules for part in name.split(".")}


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(f"pdmfactor.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse((SRC / "__init__.py").read_text())
    missing = [n for n in _imported_names(tree) if not hasattr(pdmfactor, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # names listed in __all__ are re-exports, a use of their import
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    unused = {n: line for n, line in _imported_names(tree).items() if n not in used}
    assert unused == {}


def _private_definitions(tree):
    """Each private module-level name (_CONSTANT or _helper) mapped to the
    statement that defines it."""
    defs = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defs[name] = stmt
    return defs


def _references(node, skip):
    """Names read under node (as names, attributes or imports), outside skip."""
    if node is skip:
        return set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found = {node.id}
    elif isinstance(node, ast.Attribute):
        found = {node.attr}
    elif isinstance(node, ast.ImportFrom):
        found = {alias.name for alias in node.names}
    else:
        found = set()
    for child in ast.iter_child_nodes(node):
        found |= _references(child, skip)
    return found


@pytest.mark.parametrize("name", sorted(p.stem for p in SRC.glob("*.py")))
def test_private_names_are_used(name):
    # a private name that only its own definition mentions is a leftover
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    unused = [
        private for private, stmt in _private_definitions(trees[name]).items()
        if not any(private in _references(tree, stmt) for tree in trees.values())
    ]
    assert unused == []


def test_every_definition_is_read_by_the_package():
    # a function, class or method that only tests call is API the package
    # does not need; __all__ strings and __init__.py re-exports are no reads
    trees = {name: ast.parse((SRC / f"{name}.py").read_text()) for name in MODULES}
    unread = [
        f"{name}.{node.name}"
        for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(node.name in _references(other, node) for other in trees.values())
    ]
    assert unread == []


@pytest.mark.parametrize("name", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "grids"))
def test_only_grids_knows_the_spacing(name):
    # the node spacing is the grid's decision: every other module asks the
    # Grid or a grids.py function instead of reading grid.h
    tree = ast.parse((SRC / f"{name}.py").read_text())
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "h"]
    assert reads == []


def test_only_main_runs_the_command_pipeline():
    # each cmd_* only computes: cli.main builds the model, the grid and the
    # report header once, then writes every output and prints every line
    pipeline = {"catalog", "_grid_from_args", "_atomic_write", "print"}
    tree = ast.parse((SRC / "cli.py").read_text())
    calls = [
        (getattr(stmt, "name", None), node.func.id, node.lineno)
        for stmt in tree.body for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in pipeline
    ]
    assert [call for call in calls if call[0] != "main"] == []
    assert {callee for _, callee, _ in calls} == pipeline


def test_package_import_leaves_out_the_cli():
    # cli.py builds its argparse parser at import; "import pdmfactor" must
    # not pay for it
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert "cli" not in _imported_module_parts(tree)


def test_factor_never_reads_the_solver():
    # the eigensolver is the independent check of the construction: factor.py
    # builds only on grids and models, and the caller names each state's level
    tree = ast.parse((SRC / "factor.py").read_text())
    assert _imported_module_parts(tree) & {"spectra", "verify", "cli"} == set()


def test_verify_reads_only_the_result_from_factor():
    # the beta = 0 route, its lambda scan included, lives in factor.py; the
    # checks in verify.py read a finished FactorizationResult and nothing else
    tree = ast.parse((SRC / "verify.py").read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "factor"
             for alias in node.names}
    assert names == {"FactorizationResult"}


def test_verify_takes_no_derivative():
    # each derivative is taken once, in the construction stage that uses it:
    # the Riccati residual reads f'/sqrt(m) back from the exported V~_n-
    tree = ast.parse((SRC / "verify.py").read_text())
    assert "grids" not in _imported_module_parts(tree)


def test_construct_maps_every_state():
    # construct exports each deformed state, the zero mode included, through
    # factor.map_eigenstate, whose level-n route is the zero mode
    tree = ast.parse((SRC / "cli.py").read_text())
    assert "zero_mode" not in _imported_names(tree)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_only_cli_writes_json(name):
    # the report format is one decision: cli._atomic_write serializes the
    # report dataclasses and dicts, so no other module casts its own JSON
    tree = ast.parse((SRC / f"{name}.py").read_text())
    assert "json" not in _imported_module_parts(tree)
    defs = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "to_json_dict"]
    assert defs == []


# calls that create, open, write, rename or remove a file, and the modules
# that provide them
FILE_SYSTEM_CALLS = {"open", "replace", "rename", "unlink", "remove", "rmdir", "mkdir",
                     "makedirs", "mkstemp", "write_text", "write_bytes", "save", "savetxt",
                     "tofile"}
FILE_SYSTEM_MODULES = {"os", "tempfile", "shutil", "pathlib", "io"}


def _called_names(tree):
    """The name or attribute each call in tree calls, mapped to its lines."""
    calls = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            calls.setdefault(name, []).append(node.lineno)
    return calls


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_only_cli_touches_the_file_system(name):
    # cli.py creates, writes, renames and removes every output file; the
    # other modules compute, and grids.write_csv formats into the file it is
    # handed
    tree = ast.parse((SRC / f"{name}.py").read_text())
    calls = {n: lines for n, lines in _called_names(tree).items() if n in FILE_SYSTEM_CALLS}
    assert calls == {}
    assert _imported_module_parts(tree) & FILE_SYSTEM_MODULES == set()


def test_cli_opens_each_output_once_through_its_descriptor():
    # cli._atomic_write opens the descriptor mkstemp returns, never the temp
    # file's name: one open call, whose file is that descriptor
    tree = ast.parse((SRC / "cli.py").read_text())
    descriptors = [node.targets[0].elts[0].id for node in ast.walk(tree)
                   if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                   and getattr(node.value.func, "attr", None) == "mkstemp"]
    opens = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "open"]
    assert len(descriptors) == 1 and len(opens) == 1
    assert isinstance(opens[0].args[0], ast.Name) and opens[0].args[0].id == descriptors[0]


def test_each_model_is_one_frozen_dataclass():
    # a model class is its own parameter set: MODELS maps each identifier to
    # a frozen dataclass subclass of PdmModel that carries that name
    for name, model_type in MODELS.items():
        assert issubclass(model_type, PdmModel)
        assert dataclasses.is_dataclass(model_type)
        assert model_type.__dataclass_params__.frozen
        assert model_type.name == name


def test_sampled_function_stores_values_only():
    # a singular sample is NaN, and the NaN is its only record: no mask is
    # stored beside the values
    assert [f.name for f in dataclasses.fields(SampledFunction)] == ["grid", "values"]


def test_cli_reads_the_model_catalog():
    # model identifiers, parameter names and their defaults are declared once,
    # in the model classes of models.MODELS; cli.py takes its --model choices
    # and its parameter flags from that table, and the defaults stay with
    # the model
    names, defaults = set(MODELS), set()
    for model_type in MODELS.values():
        for f in dataclasses.fields(model_type):
            names |= {f.name, f"--{f.name}"}
            defaults.add(f.default)
    tree = ast.parse((SRC / "cli.py").read_text())
    constants = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)]
    assert [c for c in constants if isinstance(c, str) and c in names] == []
    assert [c for c in constants if isinstance(c, float) and c in defaults] == []


def test_no_model_brings_its_own_seed():
    # models.seed_solution marches the auxiliary solution of any model
    assert [name for name, model_type in MODELS.items()
            if hasattr(model_type, "seed_solution")] == []


def test_hypergeometric_seed_is_a_test_oracle():
    # ex2's closed-form seed and its 2F1 series live in the tests, as the
    # reference for the march
    importers = [p.name for p in sorted(SRC.glob("*.py"))
                 if "gauss_2f1" in _imported_names(ast.parse(p.read_text()))]
    assert importers == []
