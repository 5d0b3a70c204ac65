"""The benchmark's tooling against the library it measures."""

import ast
import hashlib
import importlib
import inspect
import os
import pkgutil
import re

import latkit
from latkit import suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")
SRC = os.path.join(ROOT, "src", "latkit")


def traced_names():
    """SPANNED and COUNTED as written in perfbench/tracing.py, read as text:
    importing it would write bytecode next to the benchmark."""
    with open(TRACING) as handle:
        tree = ast.parse(handle.read())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    assert set(tables) == {"SPANNED", "COUNTED"}
    return [
        (module, attr) for table in tables.values() for module, attrs in table.items()
        for attr in attrs
    ]


def test_every_traced_name_resolves():
    # The tracer wraps functions found as module attributes and methods found
    # in their class __dict__; a rename under src/ must fail here, not in a
    # traced benchmark run.  It rebinds a function wherever a latkit module
    # binds that object, so no module may bind another function by its name.
    names = traced_names()
    assert len(names) > 30
    modules = [
        importlib.import_module("latkit." + info.name)
        for info in pkgutil.iter_modules(latkit.__path__)
    ]
    for module, attr in names:
        mod = importlib.import_module("latkit." + module)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(mod, cls_name)
            assert inspect.isclass(cls), (module, attr)
            assert callable(cls.__dict__.get(method)), (module, attr)
        else:
            function = getattr(mod, attr, None)
            assert inspect.isfunction(function), (module, attr)
            for other in modules:
                assert vars(other).get(attr, function) is function, (module, attr, other)


def test_all_checks_keep_the_sweep_workloads_contract():
    # perfbench/sweep_workload.checks passes seed= to each suite.ALL_CHECKS
    # entry whose __code__ lists seed among its positional names, and reads
    # (prop, label, check) triples whose check takes no argument.
    bundle = suite.default_bundle()
    for check in suite.ALL_CHECKS:
        code = check.__code__
        assert "seed" in code.co_varnames[: code.co_argcount]
        for prop, label, body in check(bundle, seed=7):
            assert isinstance(prop, str) and isinstance(label, str)
            params = inspect.signature(body).parameters.values()
            assert all(p.default is not p.empty for p in params), (prop, label)


def test_seed_zero_checks_keep_their_generation_order():
    # The sweep workload runs every 16th check of each law, in generation
    # order, so reordering a law's checks changes what a benchmark pass runs
    # even when the sorted report set stays the same.
    bundle = suite.default_bundle()
    keys = [
        "%s\t%s" % (prop, label)
        for check in suite.ALL_CHECKS
        for prop, label, _ in check(bundle, seed=0)
    ]
    assert len(keys) == 3800
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    assert digest == "8ef43ff08b17673eb3b02f3ae21aa8b6260b772d3305e66a38f065add84de6b9"


def public_functions():
    """(qualified name, function) for every public function of every latkit
    module and every public method of its classes, each where it is defined."""
    for info in pkgutil.iter_modules(latkit.__path__):
        module = importlib.import_module("latkit." + info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield "%s.%s" % (info.name, name), obj
            elif inspect.isclass(obj):
                for attr, method in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(method):
                        yield "%s.%s.%s" % (info.name, name, attr), method


def test_no_function_takes_a_budget_as_an_argument():
    # Budgets are module constants that their guards read at call time
    # (README, "Performance").  max_size stays only where it filters pools
    # or the corpus by lattice size, which is not a budget.
    takes_max_size = {"suite.run_suite", "suite.Law.checks", "corpus.named_lattices"}
    found = []
    for name, function in public_functions():
        for param in inspect.signature(function).parameters:
            if param in ("bound", "max_base", "max_points") or (
                param == "max_size" and name not in takes_max_size
            ):
                found.append((name, param))
    assert found == []
    assert takes_max_size <= {name for name, _ in public_functions()}


def source_trees():
    """(module name, parsed source) for every latkit module."""
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename)) as handle:
                yield filename[:-3], ast.parse(handle.read())


def calls_to(node, name):
    """The calls of name, or of some module's name, under node."""
    return [
        call for call in ast.walk(node) if isinstance(call, ast.Call)
        and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
    ]


def test_orders_are_made_in_one_place_and_argparse_is_imported_late():
    # Every order the library builds comes out of core._proved_poset, proved
    # by construction, or out of core._cycle, which only names a cycle; a
    # FinitePoset made anywhere else would be validated again on first use.
    # A plain command line builds no parser, so no module imports argparse
    # when it loads.
    makers, imports = [], []
    for module, tree in source_trees():
        for node in tree.body:
            if isinstance(node, ast.Import):
                imports += [(module, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports.append((module, node.module))
        # ast.walk visits outer functions first, so each call is credited to
        # the innermost function around it.
        inside = {
            id(call): "%s.%s" % (module, function.name)
            for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
            for call in calls_to(function, "FinitePoset")
        }
        makers += [inside.get(id(call), module) for call in calls_to(tree, "FinitePoset")]
    assert sorted(makers) == ["core._cycle", "core._proved_poset"]
    assert ("cli", "json") in imports  # the scan sees module-level imports
    assert [entry for entry in imports if entry[1] == "argparse"] == []


def test_covers_are_computed_in_one_place():
    # A poset's upper covers are kept by the construction that knows them or
    # scanned by FinitePoset.upper_covers, and lattices read them as
    # lower_covers; no second cover scan or join-irreducible proof is left.
    nodes = [node for module, tree in source_trees() for node in ast.walk(tree)]
    defined = {node.name for node in nodes if isinstance(node, ast.FunctionDef)}
    read = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert (defined | read) & {"_joins_exist", "covers", "cover_pairs"} == set()
    assert {"upper_covers", "lower_covers", "_cover_joins_exist"} <= defined


def test_a_union_map_is_stored_one_way():
    # A union map is its packed integer; no second form, no unchecked
    # constructor, no other packer and no separate strong-isotonicity factor.
    (tree,) = [tree for module, tree in source_trees() if module == "transition"]
    (union_map,) = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "UnionMap"
    ]
    # The fields are the keywords of the one __dict__.update in __init__, in order.
    (init,) = [
        node for node in union_map.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    (update,) = [
        call for call in ast.walk(init)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "self.__dict__.update"
    ]
    assert [keyword.arg for keyword in update.keywords] == ["source", "target", "pack"]
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert defined & {"_unchecked", "_pack", "_factor"} == set()
    assert {"union_map", "underlying_map", "images"} <= defined


def test_records_are_built_and_compared_one_way():
    # A record sets its fields in one self.__dict__.update, never through
    # object.__setattr__, and takes __eq__ and __hash__ from core.compared_by;
    # FiniteLattice alone writes its pair.  Nothing generates code: dataclass
    # compiles its methods and namedtuple builds its __new__ with eval.
    generators = {"exec", "eval", "compile", "namedtuple", "dataclass"}
    setters, generated, written = [], [], []
    for module, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
                setters.append((module, node.lineno))
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            names = [alias.name for alias in getattr(node, "names", ())] + [name]
            if "_setattr" in names or generators & set(names):
                generated.append((module, node.lineno))
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                written += [
                    "%s.%s.%s" % (module, node.name, inner.name) for inner in node.body
                    if isinstance(inner, ast.FunctionDef) and inner.name in ("__eq__", "__hash__")
                ]
    assert setters == [] and generated == []
    assert sorted(written) == [
        "core.FiniteLattice.__eq__", "core.FiniteLattice.__hash__",
        "core.compared_by.__eq__", "core.compared_by.__hash__",
    ]
    compared = []
    for info in pkgutil.iter_modules(latkit.__path__):
        module = importlib.import_module("latkit." + info.name)
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                for method in ("__eq__", "__hash__"):
                    function = vars(cls).get(method)
                    if function is not None and cls.__name__ != "FiniteLattice":
                        assert function.__qualname__ == "compared_by.<locals>." + method, cls
                        compared.append(cls.__name__)
    assert len(compared) == 2 * 12


def test_every_module_name_in_the_readme_resolves():
    # A backticked `module.name` in README.md names something of a latkit
    # module; a rename or a deletion under src/ must fail here.
    modules = {info.name for info in pkgutil.iter_modules(latkit.__path__)}
    with open(os.path.join(ROOT, "README.md")) as handle:
        names = re.findall(r"`(\w+)\.([\w.]+)`", handle.read())
    names = [(module, attr) for module, attr in names if module in modules]
    assert len(names) > 10
    for module, attr in names:
        obj = importlib.import_module("latkit." + module)
        for part in attr.split("."):
            assert hasattr(obj, part), (module, attr)
            obj = getattr(obj, part)
