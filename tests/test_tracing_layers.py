"""The benchmark tracer wraps layer functions by name; each must exist.

`kronbench/tracing.py` lists the layers it wraps in `LAYERS` (plus the pool
task `POOL_TASK`) and resolves them with getattr on the kronmix submodules.
Its `_HOOKS` read `netio.<attr>` off the module as well. The file is read as
source, never imported or run, so these tests leave the benchmark directory
untouched. The same AST reading checks that `tests/oracles.py` stays
independent of the library routines it is compared with, that a
matrix's strong components and its restrictions to closed classes have one
owner, `StochasticMatrix`, that only `kron.kron` gives a matrix factors,
that a system's closed classes are listed in one place,
`beliefs.closed_factor_classes` (`cli` also lists a graph's components for
`analyze`), and that only `product_distance_to_limit` and
`system_mixing_time` sample starts (`mixing._start_rows`).
"""

import ast
import glob
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "kronbench", "tracing.py")
ORACLES = os.path.join(ROOT, "tests", "oracles.py")
LIBRARY = os.path.join(ROOT, "src", "kronmix")


def _module(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _constants(path: str) -> dict:
    tree = _module(path)
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


def test_every_netio_name_a_hook_reads_resolves():
    tree = _module(TRACING)
    hooks = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_HOOKS"])
    hook_names = {value.id for value in hooks.values}
    functions = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name in hook_names]
    assert len(functions) == len(hook_names)
    read = {node.attr for fn in functions for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "netio"}
    assert "_thread_count" in read
    netio = importlib.import_module("kronmix.netio")
    missing = sorted(name for name in read if not hasattr(netio, name))
    assert not missing, f"kronbench/tracing.py hooks read names kronmix.netio lacks: {missing}"


def test_netio_system_scan_is_the_mixing_scan():
    # the tracer wraps netio.system_mixing_time, which is mixing's scan by name
    netio = importlib.import_module("kronmix.netio")
    assert netio.system_mixing_time is importlib.import_module("kronmix.mixing").system_mixing_time


def test_oracles_import_no_limit_or_mixing_code():
    # an oracle built on the routine it checks cannot catch that routine's faults
    banned = {"kronmix.limits", "kronmix.mixing"}
    imported = set()
    for node in ast.walk(_module(ORACLES)):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    assert imported & {"kronmix.beliefs", "kronmix.stochastic"}  # the walk sees imports
    used = sorted(name for name in imported
                  if any(name == b or name.startswith(b + ".") for b in banned))
    assert not used, f"tests/oracles.py imports library code it checks: {used}"


def test_only_stochastic_matrix_decomposes_a_matrix():
    # every other layer reads `matrix.scc`, so a chain is decomposed once
    decomposing, renormalizing = set(), set()
    for path in sorted(glob.glob(os.path.join(LIBRARY, "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        for node in ast.walk(_module(path)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "scc_decompose" and any(
                    isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) == "to_graph"
                    for arg in node.args):
                decomposing.add(module)
            if any(keyword.arg == "renormalize" for keyword in node.keywords):
                renormalizing.add(module)
    assert decomposing == {"stochastic"}, f"modules decomposing a matrix: {sorted(decomposing)}"
    assert not renormalizing, f"modules passing renormalize=: {sorted(renormalizing)}"


def test_only_stochastic_matrix_builds_a_chain_from_a_minor():
    # every other layer asks `restrict`, so a class's chain and its
    # stationary vector are built once
    building = set()
    for path in sorted(glob.glob(os.path.join(LIBRARY, "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        for node in ast.walk(_module(path)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "StochasticMatrix" and any(
                    isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) == "minor"
                    for arg in node.args):
                building.add(module)
    assert building <= {"stochastic"}, f"modules building a chain from a minor: {sorted(building)}"


def test_only_beliefs_and_cli_list_closed_components():
    # the sweep and the limits read a system's closed classes from
    # `beliefs.closed_factor_classes`; `analyze` prints a graph's own
    listing = set()
    for path in sorted(glob.glob(os.path.join(LIBRARY, "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        if any(isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "closed_components"
               for node in ast.walk(_module(path))):
            listing.add(module)
    assert listing == {"beliefs", "cli"}, f"modules listing closed components: {sorted(listing)}"


class _FactorWrites(ast.NodeVisitor):
    """The functions that assign a `_factors` attribute, by `module.function`.

    `StochasticMatrix.__init__` starting the slot at None is not counted.
    """

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, [], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _record(self, targets, value):
        if not any(isinstance(sub, ast.Attribute) and sub.attr == "_factors"
                   for target in targets for sub in ast.walk(target)):
            return
        where = f"{self.module}.{'.'.join(self.scope) or '<module>'}"
        if where == "stochastic.__init__" and isinstance(value, ast.Constant) \
                and value.value is None:
            return
        self.found.add(where)

    def visit_Assign(self, node):
        self._record(node.targets, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._record([node.target], node.value)
        self.generic_visit(node)

    visit_AnnAssign = visit_AugAssign

    def visit_Call(self, node):
        if getattr(node.func, "id", None) == "setattr" and any(
                isinstance(arg, ast.Constant) and arg.value == "_factors" for arg in node.args):
            self._record([ast.Attribute(value=node.func, attr="_factors")], None)
        self.generic_visit(node)


def test_only_kron_gives_a_matrix_factors():
    # `measure_mixing_time` measures a matrix with factors on them alone, so
    # a matrix built any other way (a restriction, a copy of a product's CSR)
    # must have none
    setting = set()
    for path in sorted(glob.glob(os.path.join(LIBRARY, "*.py"))):
        visitor = _FactorWrites(os.path.splitext(os.path.basename(path))[0])
        visitor.visit(_module(path))
        setting |= visitor.found
    assert setting == {"kron.kron"}, f"functions setting _factors: {sorted(setting)}"


def test_only_two_scans_sample_starts():
    # `measure_mixing_time` tracks every start or raises TooLarge
    calling = set()
    for path in sorted(glob.glob(os.path.join(LIBRARY, "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        for fn in ast.walk(_module(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_start_rows"
                    for node in ast.walk(fn)):
                calling.add(f"{module}.{fn.name}")
    assert calling == {"mixing.product_distance_to_limit", "mixing.system_mixing_time"}, \
        f"functions calling _start_rows: {sorted(calling)}"
