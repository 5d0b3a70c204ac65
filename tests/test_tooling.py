"""The benchmark's tooling against the library it measures."""

import ast
import importlib
import inspect
import os

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


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
    # traced benchmark run.
    names = traced_names()
    assert len(names) > 30
    for module, attr in names:
        mod = importlib.import_module("latkit." + module)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(mod, cls_name)
            assert inspect.isclass(cls), (module, attr)
            assert callable(cls.__dict__.get(method)), (module, attr)
        else:
            assert inspect.isfunction(getattr(mod, attr, None)), (module, attr)
