"""The benchmark tracer wraps layer functions by name; each must exist.

`kronbench/tracing.py` lists the layers it wraps in `LAYERS` (plus the pool
task `POOL_TASK`) and resolves them with getattr on the kronmix submodules.
The file is read as source, never imported or run, so this test leaves the
benchmark directory untouched.
"""

import ast
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "kronbench", "tracing.py")


def _constants(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("LAYERS", "POOL_TASK"):
                values[target.id] = ast.literal_eval(node.value)
    return values


def test_every_traced_layer_resolves():
    constants = _constants(TRACING)
    names = [f"{mod}.{fn}" for mod, fns in constants["LAYERS"].items() for fn in fns]
    names.append(constants["POOL_TASK"])
    assert len(names) > 20
    missing = [name for name in names
               if not callable(getattr(importlib.import_module(
                   f"kronmix.{name.split('.')[0]}"), name.split(".")[1], None))]
    assert not missing, f"kronbench/tracing.py wraps names kronmix lacks: {missing}"
